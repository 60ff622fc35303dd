"""Tests for the IR interpreter, memory image, and cycle accounting."""

import math
import random

import pytest

from repro.interp import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    MemoryImage,
    Pointer,
)
from repro.interp.differential import _values_equal
from repro.interp.memory import floats_agree
from repro.kernels.catalog import ALL_KERNELS
from repro.kernels.suites import build_suite, SUITE_SPECS
from repro.ir import (
    Function,
    GlobalArray,
    I64,
    F64,
    IRBuilder,
    Module,
    vector_of,
)
from repro.ir.values import VectorConstant
from tests.conftest import build_kernel


def run_source(source, arrays=None, args=None, entry="kernel"):
    module, func = build_kernel(source, entry)
    memory = MemoryImage(module)
    for name, values in (arrays or {}).items():
        memory.set_array(name, values)
    result = Interpreter(memory).run(func, args or {"i": 0})
    return result, memory


class TestScalarExecution:
    def test_store_load_arithmetic(self):
        _, memory = run_source("""
long A[8], B[8];
void kernel(long i) {
    A[i] = (B[i] << 1) + 3;
}
""", arrays={"B": [5, 0, 0, 0, 0, 0, 0, 0]})
        assert memory.get_array("A")[0] == 13

    def test_argument_indexing(self):
        _, memory = run_source("""
long A[8], B[8];
void kernel(long i) {
    A[i + 1] = B[i] * B[i];
}
""", arrays={"B": [3] * 8}, args={"i": 2})
        assert memory.get_array("A")[3] == 9

    def test_return_value(self):
        result, _ = run_source("""
long A[8];
long kernel(long i) {
    return A[i] + 7;
}
""", arrays={"A": [10] * 8})
        assert result.return_value == 17

    def test_integer_wraps_like_hardware(self):
        _, memory = run_source("""
long A[2], B[2];
void kernel(long i) {
    A[i] = B[i] + B[i];
}
""", arrays={"B": [2**62, 0]})
        assert memory.get_array("A")[0] == -(2**63)

    def test_float_arithmetic(self):
        _, memory = run_source("""
double A[2], B[2];
void kernel(long i) {
    A[i] = B[i] * 2.5;
}
""", arrays={"B": [4.0, 0.0]})
        assert memory.get_array("A")[0] == 10.0

    def test_select_and_cmp(self):
        _, memory = run_source("""
long A[4], B[4];
void kernel(long i) {
    A[i] = B[i] < 5 ? 100 : 200;
}
""", arrays={"B": [3, 0, 0, 0]})
        assert memory.get_array("A")[0] == 100

    def test_missing_argument_raises(self):
        module, func = build_kernel(
            "long A[4];\nvoid kernel(long i) { A[i] = 1; }"
        )
        memory = MemoryImage(module)
        with pytest.raises(InterpreterError, match="missing argument"):
            Interpreter(memory).run(func, {})

    def test_out_of_bounds_raises(self):
        module, func = build_kernel(
            "long A[4];\nvoid kernel(long i) { A[i] = 1; }"
        )
        memory = MemoryImage(module)
        with pytest.raises(InterpreterError, match="out of bounds"):
            Interpreter(memory).run(func, {"i": 10})


class TestVectorExecution:
    def _vector_func(self):
        module = Module("m")
        a = module.add_global(GlobalArray("A", I64, 16))
        b = module.add_global(GlobalArray("B", I64, 16))
        func = module.add_function(Function("k", [("i", I64)]))
        builder = IRBuilder(func.add_block("entry"))
        return module, func, builder, a, b

    def test_vector_load_store(self):
        module, func, builder, a, b = self._vector_func()
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        builder.store(vec, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        memory.set_array("B", list(range(16)))
        Interpreter(memory).run(func, {"i": 2})
        assert memory.get_array("A")[2:6] == [2, 3, 4, 5]

    def test_lanewise_binop_and_constant_vector(self):
        module, func, builder, a, b = self._vector_func()
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        vc = VectorConstant(vector_of(I64, 4), [10, 20, 30, 40])
        result = builder.add(vec, vc)
        builder.store(result, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        memory.set_array("B", [1] * 16)
        Interpreter(memory).run(func, {"i": 0})
        assert memory.get_array("A")[:4] == [11, 21, 31, 41]

    def test_shuffle_insert_extract_splat(self):
        module, func, builder, a, b = self._vector_func()
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        rev = builder.shufflevector(vec, vec, [3, 2, 1, 0])
        lane2 = builder.extractelement(rev, 2)
        splat = builder.splat(lane2, 4)
        merged = builder.insertelement(splat, builder.i64(99), 0)
        builder.store(merged, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        memory.set_array("B", [7, 8, 9, 10])
        Interpreter(memory).run(func, {"i": 0})
        # rev = [10,9,8,7]; lane2 = 8; splat = [8]*4; lane0 -> 99
        assert memory.get_array("A")[:4] == [99, 8, 8, 8]

    def test_vector_cmp_select(self):
        module, func, builder, a, b = self._vector_func()
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        zero = VectorConstant(vector_of(I64, 4), [5, 5, 5, 5])
        cmp = builder.icmp("slt", vec, zero)
        sel = builder.select(cmp, zero, vec)
        builder.store(sel, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        memory.set_array("B", [1, 9, 2, 8])
        Interpreter(memory).run(func, {"i": 0})
        assert memory.get_array("A")[:4] == [5, 9, 5, 8]

    def test_vector_store_bounds_checked(self):
        module, func, builder, a, b = self._vector_func()
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        builder.store(vec, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        with pytest.raises(InterpreterError, match="out of bounds"):
            Interpreter(memory).run(func, {"i": 14})


class TestCycleAccounting:
    def test_cycles_counted(self):
        result, _ = run_source("""
long A[4], B[4];
void kernel(long i) {
    A[i] = B[i] + 1;
}
""")
        # gep(0) + load(1) + add(1) + gep(0) + store(1) + ret(0) = 3
        assert result.cycles == 3
        assert result.instructions_retired == 6

    def test_opcode_counts(self):
        result, _ = run_source("""
long A[4], B[4];
void kernel(long i) {
    A[i] = B[i] + B[i + 1];
}
""")
        assert result.opcode_counts["load"] == 2
        assert result.opcode_counts["store"] == 1

    def test_vector_code_is_cheaper(self):
        module = Module("m")
        a = module.add_global(GlobalArray("A", I64, 16))
        b = module.add_global(GlobalArray("B", I64, 16))
        func = module.add_function(Function("k", [("i", I64)]))
        builder = IRBuilder(func.add_block("entry"))
        i = func.argument("i")
        vec = builder.vload(builder.gep(b, i), 4)
        builder.store(vec, builder.gep(a, i))
        builder.ret()
        memory = MemoryImage(module)
        vector_cycles = Interpreter(memory).run(func, {"i": 0}).cycles
        assert vector_cycles == 2  # one vload + one vstore


class TestMemoryImage:
    def test_clone_is_independent(self):
        module, _ = build_kernel("long A[4];\nvoid kernel(long i) { A[i] = 1; }")
        memory = MemoryImage(module)
        memory.set_array("A", [1, 2, 3, 4])
        copy = memory.clone()
        copy.set_array("A", [9, 9, 9, 9])
        assert memory.get_array("A") == [1, 2, 3, 4]

    def test_same_contents(self):
        module, _ = build_kernel("long A[4];\nvoid kernel(long i) { A[i] = 1; }")
        m1 = MemoryImage(module)
        m2 = m1.clone()
        assert m1.same_contents(m2)
        m2.set_array("A", [0, 0, 0, 1])
        assert not m1.same_contents(m2)

    def test_float_tolerance(self):
        module, _ = build_kernel(
            "double X[2];\nvoid kernel(long i) { X[i] = 1.0; }"
        )
        m1 = MemoryImage(module)
        m2 = m1.clone()
        m1.set_array("X", [1.0, 0.0])
        m2.set_array("X", [1.0 + 1e-13, 0.0])
        assert m1.same_contents(m2)

    def test_randomize_is_deterministic(self):
        module, _ = build_kernel("long A[4];\nvoid kernel(long i) { A[i] = 1; }")
        m1 = MemoryImage(module)
        m2 = MemoryImage(module)
        m1.randomize(seed=42)
        m2.randomize(seed=42)
        assert m1.same_contents(m2)
        m2.randomize(seed=43)
        assert not m1.same_contents(m2)

    def test_randomize_rejects_an_empty_range(self):
        module, _ = build_kernel(
            "long A[4];\nvoid kernel(long i) { A[i] = 1; }"
        )
        with pytest.raises(ValueError, match="empty range"):
            MemoryImage(module).randomize(seed=0, low=5, high=4)

    def test_randomize_refills_buffers_in_place(self):
        """Pointers and bound compiled runners hold the buffer lists."""
        module, _ = build_kernel(
            "long A[4];\nvoid kernel(long i) { A[i] = 1; }"
        )
        memory = MemoryImage(module)
        pointer = memory.pointer_to("A")
        memory.randomize(seed=3)
        assert pointer.buffer == memory.get_array("A")
        assert any(pointer.buffer)

    def test_set_array_size_check(self):
        module, _ = build_kernel("long A[4];\nvoid kernel(long i) { A[i] = 1; }")
        memory = MemoryImage(module)
        with pytest.raises(ValueError):
            memory.set_array("A", [0] * 9)

    def test_pointer_advanced(self):
        module, _ = build_kernel("long A[4];\nvoid kernel(long i) { A[i] = 1; }")
        memory = MemoryImage(module)
        ptr = memory.pointer_to("A", 1)
        assert ptr.advanced(2).offset == 3
        assert ptr.advanced(2).buffer is ptr.buffer


def _drawn_per_element(memory: MemoryImage, seed: int,
                       low: int = -100, high: int = 100) -> dict:
    """The randomizer's stream as one ``randint``/``uniform`` call per
    element, buffer by buffer in declaration order."""
    rng = random.Random(seed)
    expected = {}
    for name, values in memory.arrays().items():
        if memory._elem_is_float[name]:
            expected[name] = [rng.uniform(low, high) for _ in values]
        else:
            expected[name] = [rng.randint(low, high) for _ in values]
    return expected


LAYOUTS = [
    pytest.param(kernel.build()[0], id=name)
    for name, kernel in ALL_KERNELS.items()
] + [pytest.param(build_suite(SUITE_SPECS[0]), id="suite-453.povray")]


class TestRandomizeStream:
    """``randomize`` applies ``randint``/``uniform``'s formulas directly,
    including the private ``Random._randbelow``; these tests catch a
    Python release whose stream no longer matches the public calls."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("module", LAYOUTS)
    def test_matches_per_element_draws(self, module, seed):
        memory = MemoryImage(module)
        memory.randomize(seed=seed)
        drawn = memory.arrays()
        expected = _drawn_per_element(memory, seed)
        assert drawn == expected
        for name, values in expected.items():
            assert [type(v) for v in drawn[name]] == \
                [type(v) for v in values], name

    def test_matches_with_custom_bounds(self):
        module = ALL_KERNELS["453.boy-surface"].build()[0]
        memory = MemoryImage(module)
        memory.randomize(seed=5, low=-3, high=9)
        assert memory.arrays() == _drawn_per_element(memory, 5, -3, 9)


INF, NAN = math.inf, math.nan


class TestNonFiniteFloats:
    """The oracle's float rule: identical values pass, NaN matches only
    NaN, an infinity only the same infinity, finite pairs within the
    relative tolerance."""

    DIFFERENT = [(NAN, 1.0), (1.0, NAN), (INF, 5.0), (5.0, INF),
                 (-INF, INF), (INF, -INF), (-INF, -5.0), (NAN, INF)]
    SAME = [(NAN, NAN), (INF, INF), (-INF, -INF), (1.0, 1.0),
            (1.0, 1.0 + 1e-13), (0.0, -0.0)]

    @staticmethod
    def _images(a: float, b: float):
        module, _ = build_kernel(
            "double X[2];\nvoid kernel(long i) { X[i] = 1.0; }"
        )
        left, right = MemoryImage(module), MemoryImage(module)
        left.set_array("X", [2.0, a])
        right.set_array("X", [2.0, b])
        return left, right

    @pytest.mark.parametrize("a, b", DIFFERENT)
    def test_same_contents_rejects(self, a, b):
        left, right = self._images(a, b)
        assert not left.same_contents(right)

    @pytest.mark.parametrize("a, b", SAME)
    def test_same_contents_accepts(self, a, b):
        left, right = self._images(a, b)
        assert left.same_contents(right)

    @pytest.mark.parametrize("a, b", DIFFERENT)
    def test_return_values_reject(self, a, b):
        assert not _values_equal(a, b, 1e-9)
        assert not floats_agree(a, b, 1e-9)

    @pytest.mark.parametrize("a, b", SAME)
    def test_return_values_accept(self, a, b):
        assert _values_equal(a, b, 1e-9)
        assert floats_agree(a, b, 1e-9)

    def test_finite_pairs_keep_the_relative_tolerance(self):
        assert floats_agree(1e12, 1e12 + 1.0, 1e-9)
        assert not floats_agree(1.0, 1.0 + 1e-6, 1e-9)


class TestTraceHook:
    def test_on_retire_sees_every_instruction(self):
        module, func = build_kernel("""
long A[8], B[8];
void kernel(long i) {
    A[i] = B[i] + 1;
}
""")
        memory = MemoryImage(module)
        events = []
        result = Interpreter(memory).run(
            func, {"i": 0}, on_retire=lambda inst, value: events.append(
                (inst.opcode, value)
            )
        )
        assert len(events) == result.instructions_retired
        opcodes = [opcode for opcode, _ in events]
        assert opcodes == ["gep", "load", "add", "gep", "store", "ret"]
        assert events[2][1] == 1  # 0 + 1

    def test_on_retire_reports_branch_direction(self):
        module, func = build_kernel("""
long A[8];
void kernel(long n) {
    for (long j = 0; j < n; j = j + 1) {
        A[j] = j;
    }
}
""")
        memory = MemoryImage(module)
        events = []
        Interpreter(memory).run(
            func, {"n": 2},
            on_retire=lambda inst, value: events.append(
                (inst.opcode, value)
            ),
        )
        condbr_values = [v for op, v in events if op == "condbr"]
        assert condbr_values == [True, True, False]
