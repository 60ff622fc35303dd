"""Property-based differential fuzzing of the compiled backend.

Reuses the kernel generator from :mod:`tests.test_property_differential`
(random expression templates with per-lane commutative swaps — the
paper's workload shape), vectorizes with LSLP, and requires the
generated Python code to match the interpreter *exactly*: return value,
final memory, cycles, retired count, and per-opcode tallies.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.backend import cross_check
from repro.costmodel.targets import target_by_name
from repro.opt import compile_function
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel
from tests.test_property_differential import expressions, kernels, render

TARGET = target_by_name("skylake-like")
ARRAYS = ["B", "C", "D", "E"]


@settings(max_examples=40, deadline=None)
@given(source=kernels(), seed=st.integers(min_value=0, max_value=10**6))
def test_compiled_matches_interpreter_vectorized(source, seed):
    module, func = build_kernel(source)
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    result = cross_check(
        module, func, TARGET,
        base_args={"i": 4, "k": seed % 97 - 48},
        runs=2, base_seed=seed,
    )
    assert result.ok, f"diverged: {result.render()}\n{source}"


def test_unsigned_vector_lshr_regression():
    """Found by the fuzz: a vector lshr of unsigned lanes by a
    vector-constant amount."""
    source = (
        "unsigned long A[64], B[64], C[64], D[64], E[64];\n"
        "void kernel(long i, long k) {\n"
        "    A[i + 0] = (B[i + 0] >> 1);\n"
        "    A[i + 1] = (B[i + 1] >> 1);\n"
        "}\n"
    )
    module, func = build_kernel(source)
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    result = cross_check(module, func, TARGET,
                         base_args={"i": 4, "k": 0}, runs=2)
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Select-bearing and branchy kernels (the if-conversion surface)
# ---------------------------------------------------------------------------


def _decls() -> str:
    return "unsigned long A[64], " + ", ".join(
        f"{name}[64]" for name in ARRAYS
    ) + ";"


@st.composite
def select_kernels(draw):
    """Per-lane ternaries: every row lowers to a scalar select, so the
    vectorized trees carry vector selects through the backend."""
    lanes = draw(st.sampled_from([2, 4]))
    predicate = draw(st.sampled_from(["<", "<=", ">", "==", "!="]))
    cond_template = draw(expressions(max_depth=2))
    value_template = draw(expressions(max_depth=2))
    rows = []
    for lane in range(lanes):
        swaps = draw(st.lists(st.booleans(), min_size=0, max_size=8))
        cond = render(cond_template, lane, swaps, [0])
        on_true = render(value_template, lane, swaps, [0])
        rows.append(
            f"    A[i + {lane}] = ({cond} {predicate} 3) "
            f"? {on_true} : B[i + {lane}];"
        )
    return (
        f"{_decls()}\n"
        "void kernel(long i, long k) {\n"
        + "\n".join(rows)
        + "\n}\n"
    )


@st.composite
def branchy_kernels(draw):
    """Per-lane if/else regions for the if-conversion pass.

    Diamonds store to the same address on both paths (must-alias merge,
    always convertible once the operands are provable); hammocks guard
    an in-place update whose dereferenceability proof comes from the
    condition's own read of the target.  Symbolic-index lanes exercise
    the decline paths — the property is the same either way: compiling
    with ``ifconvert=on`` never miscompiles.
    """
    lanes = draw(st.sampled_from([2, 4]))
    hammock = draw(st.booleans())
    predicate = draw(st.sampled_from(["<", ">", "=="]))
    value_template = draw(expressions(max_depth=2))
    rows = []
    for lane in range(lanes):
        swaps = draw(st.lists(st.booleans(), min_size=0, max_size=8))
        value = render(value_template, lane, swaps, [0])
        if hammock:
            rows.append(
                f"    if (A[i + {lane}] {predicate} B[i + {lane}]) "
                f"{{ A[i + {lane}] = {value}; }}"
            )
        else:
            other = draw(st.sampled_from(ARRAYS))
            rows.append(
                f"    if (B[i + {lane}] {predicate} 7) "
                f"{{ A[i + {lane}] = {value}; }} "
                f"else {{ A[i + {lane}] = {other}[i + {lane}]; }}"
            )
    return (
        f"{_decls()}\n"
        "void kernel(long i, long k) {\n"
        + "\n".join(rows)
        + "\n}\n"
    )


@settings(max_examples=30, deadline=None)
@given(source=select_kernels(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_compiled_matches_interpreter_selects(source, seed):
    module, func = build_kernel(source)
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    result = cross_check(
        module, func, TARGET,
        base_args={"i": 4, "k": seed % 97 - 48},
        runs=2, base_seed=seed,
    )
    assert result.ok, f"diverged: {result.render()}\n{source}"


@settings(max_examples=30, deadline=None)
@given(source=branchy_kernels(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_compiled_matches_interpreter_ifconverted(source, seed):
    module, func = build_kernel(source)
    config = replace(VectorizerConfig.lslp(), ifconvert="on")
    compile_function(func, config, TARGET)
    result = cross_check(
        module, func, TARGET,
        base_args={"i": 4, "k": seed % 97 - 48},
        runs=2, base_seed=seed,
    )
    assert result.ok, f"diverged: {result.render()}\n{source}"


def test_constant_select_mask_regression():
    """Found by the select fuzz: constfold turns a lane-invariant
    ternary condition into a ``<N x i1>`` vector constant."""
    source = (
        "unsigned long A[64], B[64], C[64], D[64], E[64];\n"
        "void kernel(long i, long k) {\n"
        "    A[i + 0] = (0 < 3) ? B[i + 0] : C[i + 0];\n"
        "    A[i + 1] = (0 < 3) ? B[i + 1] : C[i + 1];\n"
        "}\n"
    )
    module, func = build_kernel(source)
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    result = cross_check(module, func, TARGET,
                         base_args={"i": 4, "k": 0}, runs=2)
    assert result.ok, result.render()


def test_splat_select_mask_regression():
    """Found by the select fuzz: a uniform scalar condition (``k < 3``)
    is splat to ``<N x i1>`` for the packed selects."""
    source = (
        "unsigned long A[64], B[64], C[64], D[64], E[64];\n"
        "void kernel(long i, long k) {\n"
        "    A[i + 0] = (k < 3) ? B[i + 0] : C[i + 0];\n"
        "    A[i + 1] = (k < 3) ? B[i + 1] : C[i + 1];\n"
        "}\n"
    )
    module, func = build_kernel(source)
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    result = cross_check(module, func, TARGET,
                         base_args={"i": 4, "k": 0}, runs=2)
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Counted loops (the unroll-and-SLP surface)
# ---------------------------------------------------------------------------


@st.composite
def loop_reduction_kernels(draw):
    """Accumulator loops with random trips, steps, and reduction ops:
    under ``loop_vectorize=True`` these partially unroll, pack across
    the copies, and fold through a horizontal reduction — all of which
    the compiled tier must replay bit-for-bit, epilogue included."""
    bound = draw(st.integers(min_value=0, max_value=24))
    step = draw(st.integers(min_value=1, max_value=2))
    use_symbolic_bound = draw(st.booleans())
    bound_text = "n" if use_symbolic_bound else str(bound)
    op = draw(st.sampled_from(["+", "*", "&", "|", "^"]))
    array = draw(st.sampled_from(ARRAYS))
    other = draw(st.sampled_from(ARRAYS))
    multiply = draw(st.booleans())
    update = (f"s {op} {array}[j] * {other}[j]" if multiply
              else f"s {op} {array}[j]")
    with_store = draw(st.booleans())
    store = f"        A[j] = {array}[j] + {other}[j];\n" if with_store else ""
    source = (
        f"{_decls()}\n"
        "unsigned long kernel(long n) {\n"
        "    unsigned long s = 1;\n"
        f"    for (long j = 0; j < {bound_text}; j = j + {step}) {{\n"
        f"{store}"
        f"        s = {update};\n"
        "    }\n"
        "    return s;\n"
        "}\n"
    )
    return source, bound


@settings(max_examples=30, deadline=None)
@given(data=loop_reduction_kernels(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_compiled_matches_interpreter_loop_vectorized(data, seed):
    source, bound = data
    module, func = build_kernel(source)
    config = replace(VectorizerConfig.lslp(), loop_vectorize=True)
    compile_function(func, config, TARGET)
    result = cross_check(
        module, func, TARGET,
        base_args={"n": bound},
        runs=2, base_seed=seed,
    )
    assert result.ok, f"diverged: {result.render()}\n{source}"


@settings(max_examples=25, deadline=None)
@given(source=kernels(), seed=st.integers(min_value=0, max_value=10**6))
def test_compiled_matches_interpreter_scalar(source, seed):
    module, func = build_kernel(source)
    result = cross_check(
        module, func, TARGET,
        base_args={"i": 4, "k": seed % 97 - 48},
        runs=2, base_seed=seed,
    )
    assert result.ok, f"scalar diverged: {result.render()}\n{source}"
