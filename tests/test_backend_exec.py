"""Differential tests for the compiled execution backend.

Every catalog kernel must reproduce the interpreter *exactly*: return
values, final memory, and the simulated cycle accounting (cycles /
instructions retired / opcode counts).  Control flow (loops,
diamonds), calls (including recursion) and the error paths (bounds,
step limit, call depth, missing arguments) are exercised with
hand-built IR.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import (
    EMIT_VERSION,
    CompiledModule,
    TieredExecutor,
    clear_load_cache,
    cross_check,
    emit_module,
    load_compiled,
)
from repro.costmodel.targets import target_by_name
from repro.interp.interpreter import Interpreter, InterpreterError
from repro.interp.memory import MemoryImage
from repro.ir import F64, Function, GlobalArray, I64, IRBuilder, Module
from repro.kernels.catalog import EVALUATION_KERNELS
from repro.opt.pipelines import compile_function
from repro.slp.vectorizer import VectorizerConfig

TARGET = target_by_name("skylake-like")


def _build(kernel, config):
    module, func = kernel.build()
    compile_function(func, config, TARGET)
    return module, func


# ---------------------------------------------------------------------------
# Catalog sweep: every configuration, exact equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", EVALUATION_KERNELS, ids=lambda k: k.name
)
def test_catalog_lslp_exact(kernel):
    module, func = _build(kernel, VectorizerConfig.lslp())
    result = cross_check(
        module, func, TARGET, base_args=dict(kernel.default_args),
        runs=2,
    )
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs


@pytest.mark.parametrize(
    "config", [VectorizerConfig.slp_nr(), VectorizerConfig.slp()],
    ids=lambda c: c.name,
)
@pytest.mark.parametrize(
    "kernel", EVALUATION_KERNELS, ids=lambda k: k.name
)
def test_catalog_baseline_slp_exact(kernel, config):
    """The paper's baseline vectorizers (SLP without and with
    opcode-based reordering) pack other lanes and operand orders than
    LSLP; their vector code must run compiled exactly too."""
    module, func = _build(kernel, config)
    result = cross_check(
        module, func, TARGET, base_args=dict(kernel.default_args),
        runs=2,
    )
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs


@pytest.mark.parametrize(
    "kernel", EVALUATION_KERNELS[:4], ids=lambda k: k.name
)
def test_catalog_scalar_exact(kernel):
    module, func = _build(kernel, VectorizerConfig.o3())
    result = cross_check(
        module, func, TARGET, base_args=dict(kernel.default_args),
        runs=2,
    )
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Control flow and calls
# ---------------------------------------------------------------------------


def loop_module():
    """A counted accumulation loop over @A with two phis."""
    m = Module("loops")
    m.add_global(GlobalArray("A", F64, 16))
    f = Function("accum", [("n", I64)])
    f.return_type = F64
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b = IRBuilder(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(I64, "i")
    acc = b.phi(F64, "acc")
    x = b.load(b.gep(m.globals["A"], i))
    acc2 = b.fadd(acc, x)
    i2 = b.add(i, b.i64(1))
    b.condbr(b.icmp("slt", i2, f.argument("n")), loop, done)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i2, loop)
    acc.add_incoming(b.const(F64, 0.0), entry)
    acc.add_incoming(acc2, loop)
    b.set_block(done)
    b.ret(acc2)
    m.add_function(f)
    return m, f


def call_module():
    """main -> double -> double, accounting merged across frames."""
    m = Module("calls")
    m.add_global(GlobalArray("A", I64, 8))
    callee = Function("double", [("x", I64)])
    callee.return_type = I64
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(cb.add(callee.argument("x"), callee.argument("x")))
    m.add_function(callee)
    caller = Function("main", [("x", I64)])
    caller.return_type = I64
    b = IRBuilder(caller.add_block("entry"))
    r1 = b.call(callee, [caller.argument("x")])
    r2 = b.call(callee, [r1])
    b.ret(b.add(r1, r2))
    m.add_function(caller)
    return m, caller


def recursive_module():
    """Self-recursion counting down from %x."""
    m = Module("rec")
    f = Function("down", [("x", I64)])
    f.return_type = I64
    entry = f.add_block("entry")
    again = f.add_block("again")
    out = f.add_block("out")
    b = IRBuilder(entry)
    b.condbr(b.icmp("sgt", f.argument("x"), b.i64(0)), again, out)
    b.set_block(again)
    r = b.call(f, [b.sub(f.argument("x"), b.i64(1))])
    b.ret(b.add(r, b.i64(1)))
    b.set_block(out)
    b.ret(b.i64(0))
    m.add_function(f)
    return m, f


def test_loop_exact():
    m, f = loop_module()
    result = cross_check(m, f, TARGET, base_args={"n": 16}, runs=3)
    assert result.ok, result.render()


def test_calls_merge_accounting():
    m, f = call_module()
    result = cross_check(m, f, TARGET, base_args={"x": 7}, runs=3)
    assert result.ok, result.render()


def test_recursion_within_depth():
    m, f = recursive_module()
    result = cross_check(m, f, TARGET, base_args={"x": 20}, runs=2)
    assert result.ok, result.render()


def test_recursion_depth_limit_matches():
    m, f = recursive_module()
    result = cross_check(m, f, TARGET, base_args={"x": 100}, runs=1)
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Error paths: same exception class, same message
# ---------------------------------------------------------------------------


def _both_raise(module, func, args, step_limit=1_000_000):
    mem_ref = MemoryImage(module)
    mem_ref.randomize(3)
    mem_cmp = mem_ref.clone()
    with pytest.raises(InterpreterError) as interp_err:
        Interpreter(mem_ref, TARGET).run(
            func, args, step_limit=step_limit
        )
    executor = TieredExecutor(module, mem_cmp, TARGET,
                              backend="compiled")
    with pytest.raises(InterpreterError) as backend_err:
        executor.run(func.name, args, step_limit=step_limit)
    return str(interp_err.value), str(backend_err.value)


def test_step_limit_message_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {"n": 16}, step_limit=10)
    assert a == b
    assert "step limit 10 exceeded" in a


def test_out_of_bounds_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {"n": 25})  # @A only holds 16
    # Identical up to the context suffix: the interpreter cites the
    # faulting Instruction, the backend says "in generated code".
    assert a.split(" in ")[0] == b.split(" in ")[0]
    assert "out of bounds" in a and "out of bounds" in b


def test_missing_argument_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {})
    assert a == b == "missing argument %n for @accum"


# ---------------------------------------------------------------------------
# Runtime plumbing
# ---------------------------------------------------------------------------


def test_load_cache_memoizes_by_content():
    m, f = loop_module()
    emitted = emit_module(m, TARGET)
    clear_load_cache()
    first = load_compiled(emitted.source)
    second = load_compiled(emitted.source)
    assert first.namespace is second.namespace
    assert first.sha256 == second.sha256


def test_version_mismatch_rejected():
    m, f = loop_module()
    emitted = emit_module(m, TARGET)
    stamp = f"'version': {EMIT_VERSION}"
    assert emitted.source.count(stamp) == 1
    source = emitted.source.replace(stamp, "'version': 999")
    clear_load_cache()
    with pytest.raises(ValueError, match="version"):
        CompiledModule(source)


def test_other_version_rejected_before_it_runs():
    """The header's version is checked before the source executes: a
    v1 module whose prelude imports a missing module is a version
    error, not an ImportError."""
    m, f = loop_module()
    source = emit_module(m, TARGET).source
    header = f"Generated by repro.backend.emit v{EMIT_VERSION}."
    assert source.count(header) == 1
    source = source.replace(header, "Generated by repro.backend.emit v1.")
    source = source.replace(
        "\nfrom repro.interp", "\nimport repro_no_such_module\n"
        "from repro.interp", 1,
    )
    clear_load_cache()
    with pytest.raises(ValueError, match="generated source version 1 "):
        CompiledModule(source)


def test_bound_function_survives_in_place_mutation():
    """Bound buffers are captured by reference; randomize/set_array
    mutate in place, so results track the live memory."""
    m, f = loop_module()
    memory = MemoryImage(m)
    executor = TieredExecutor(m, memory, TARGET, backend="compiled")
    memory.set_array("A", [1.0] * 16)
    first = executor.run(f.name, {"n": 4}).result
    assert first.return_value == 4.0
    memory.set_array("A", [2.0] * 16)
    second = executor.run(f.name, {"n": 4}).result
    assert second.return_value == 8.0
    assert first.cycles == second.cycles


def test_interp_backend_is_plain_interpreter():
    m, f = loop_module()
    memory = MemoryImage(m)
    memory.randomize(0)
    executor = TieredExecutor(m, memory, TARGET, backend="interp")
    run = executor.run(f.name, {"n": 8})
    assert run.tier == "interp"
    assert not run.fallback
    assert executor.compiled is None


_NO_NUMPY_PROGRAM = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError

from dataclasses import replace

from repro.backend import cross_check, emit_module
from repro.costmodel.targets import skylake_like
from repro.kernels.catalog import ALL_KERNELS
from repro.opt.pipelines import compile_function
from repro.service import (
    CompilationService, CompileCache, MemoryCache, job_for_kernel,
)
from repro.slp.vectorizer import VectorizerConfig

LSLP_FULL = replace(VectorizerConfig.lslp(), name="LSLP-full",
                    ifconvert="on", loop_vectorize=True,
                    plan_select="module-greedy")
target = skylake_like()
for name in ("453.boy-surface", "branchy-clamp", "loop-dot"):
    kernel = ALL_KERNELS[name]
    module, func = kernel.build()
    compile_function(func, LSLP_FULL, target)
    emitted = emit_module(module, target)
    assert "numpy" not in emitted.source, name
    assert not emitted.unsupported, (name, emitted.unsupported)
    result = cross_check(module, func, target,
                         base_args=dict(kernel.default_args), runs=2,
                         backend="compiled")
    assert result.ok, (name, result.render())
    assert result.compiled_runs == result.runs == 2, name
    print(name, "compiled", result.compiled_runs)

job = job_for_kernel(ALL_KERNELS["453.boy-surface"], LSLP_FULL, target,
                     backend="compiled", verify_runs=1)
served = CompilationService(
    cache=CompileCache(memory=MemoryCache())).compile_job(job)
assert served.error == "", served.error
assert served.entry.backend == "compiled"
assert "numpy" not in served.entry.generated_source
print("service", served.entry.backend)
"""


def test_compiled_tier_runs_without_numpy():
    """Generated modules and the runtime import nothing outside the
    standard library and ``repro``: emission, cross-checking and a
    verified compiled service job all work with numpy unimportable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROGRAM],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == [
        "453.boy-surface compiled 2",
        "branchy-clamp compiled 2",
        "loop-dot compiled 2",
        "service compiled",
    ]
