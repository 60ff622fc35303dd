"""Tests for vector code generation: emitted shapes, extracts, erasure."""

import pytest

from repro.interp import compare_runs
from repro.ir import verify_function
from repro.opt import compile_function, run_dce
from repro.slp import VectorizerConfig
from repro.slp.vectorizer import ModuleVectorizationDriver
from tests.conftest import build_kernel


def vectorize(source, config=None, entry="kernel"):
    reference = build_kernel(source, entry)
    module, func = build_kernel(source, entry)
    driver = ModuleVectorizationDriver(config or VectorizerConfig.lslp())
    report = driver.apply_function(func)
    verify_function(func)
    run_dce(func)
    verify_function(func)
    return reference, (module, func), report


def opcodes(func):
    return [inst.opcode for inst in func.entry]


class TestEmittedShapes:
    def test_copy_kernel_becomes_vload_vstore(self):
        _, (module, func), report = vectorize("""
long A[64], B[64];
void kernel(long i) {
    A[i + 0] = B[i + 0];
    A[i + 1] = B[i + 1];
}
""")
        assert report.num_vectorized == 1
        ops = opcodes(func)
        loads = [i for i in func.entry if i.opcode == "load"]
        stores = [i for i in func.entry if i.opcode == "store"]
        assert len(loads) == 1 and loads[0].type.is_vector
        assert len(stores) == 1 and stores[0].is_vector_store

    def test_vector_store_targets_lane0_address(self):
        ref, (module, func), _ = vectorize("""
long A[64], B[64];
void kernel(long i) {
    A[i + 1] = B[i + 1];
    A[i + 0] = B[i + 0];
}
""")
        out = compare_runs(ref, (module, func), args={"i": 4})
        assert out.equivalent, out.detail

    def test_constant_operands_become_vector_constant(self):
        _, (module, func), _ = vectorize("""
long A[64], B[64];
void kernel(long i) {
    A[i + 0] = B[i + 0] - 3;
    A[i + 1] = B[i + 1] - 4;
}
""")
        from repro.ir.values import VectorConstant

        subs = [i for i in func.entry if i.opcode == "sub"]
        assert len(subs) == 1
        assert isinstance(subs[0].rhs, VectorConstant)
        assert subs[0].rhs.values == (3, 4)

    def test_splat_operand(self):
        _, (module, func), report = vectorize("""
long A[64], B[64];
void kernel(long i, long k) {
    A[i + 0] = B[i + 0] - k;
    A[i + 1] = B[i + 1] - k;
}
""")
        assert report.num_vectorized == 1
        assert "splat" in opcodes(func)

    def test_mixed_gather_uses_insertelement(self):
        _, (module, func), report = vectorize("""
long A[64], B[64], C[64];
void kernel(long i, long k) {
    A[i + 0] = B[i + 0] - k;
    A[i + 1] = B[i + 1] - C[i];
}
""")
        if report.num_vectorized:
            assert "insertelement" in opcodes(func)

    def test_multinode_fold_count(self):
        _, (module, func), report = vectorize("""
unsigned long A[64], B[64], C[64], D[64];
void kernel(long i) {
    A[i + 0] = B[i + 0] & C[i + 0] & D[i + 0];
    A[i + 1] = D[i + 1] & B[i + 1] & C[i + 1];
}
""")
        assert report.num_vectorized == 1
        ands = [i for i in func.entry if i.opcode == "and"]
        # 3 operand slots -> 2 vector & instructions
        assert len(ands) == 2
        assert all(i.type.is_vector for i in ands)

    def test_scalar_tree_fully_erased(self):
        _, (module, func), report = vectorize("""
long A[64], B[64], C[64];
void kernel(long i) {
    A[i + 0] = B[i + 0] - C[i + 0];
    A[i + 1] = B[i + 1] - C[i + 1];
}
""")
        assert report.num_vectorized == 1
        scalar_arith = [
            i for i in func.entry
            if i.opcode in ("sub",) and not i.type.is_vector
        ]
        assert scalar_arith == []


class TestExternalUsers:
    def test_external_use_gets_extract(self):
        _, (module, func), report = vectorize("""
long A[64], B[64], C[64];
void kernel(long i) {
    long t0 = B[i + 0] - C[i + 0];
    long t1 = B[i + 1] - C[i + 1];
    A[i + 0] = t0;
    A[i + 1] = t1;
    A[i + 32] = t1;
}
""")
        assert report.num_vectorized == 1
        assert "extractelement" in opcodes(func)

    def test_external_use_correctness(self):
        source = """
long A[64], B[64], C[64];
void kernel(long i) {
    long t0 = B[i + 0] - C[i + 0];
    long t1 = B[i + 1] - C[i + 1];
    A[i + 0] = t0;
    A[i + 1] = t1;
    A[i + 32] = t0 * t1;
}
"""
        ref, transformed, report = vectorize(source)
        out = compare_runs(ref, transformed, args={"i": 3})
        assert out.equivalent, out.detail


class TestSchedulingGuards:
    def test_interposed_store_blocks_vectorization(self):
        _, (module, func), report = vectorize("""
long A[64], B[64];
void kernel(long i) {
    long t0 = B[i + 0];
    B[i + 1] = t0 + 5;
    long t1 = B[i + 1];
    A[i + 0] = t0;
    A[i + 1] = t1;
}
""")
        # moving the B loads past the B store would be illegal
        trees = [t for t in report.trees if t.kind == "store"]
        loads_vectorized = any(
            t.vectorized and "load" in t.description for t in trees
        )
        assert not loads_vectorized

    def test_store_groups_processed_independently(self):
        _, (module, func), report = vectorize("""
long A[64], B[64], C[64];
void kernel(long i) {
    A[i + 0] = B[i + 0];
    A[i + 1] = B[i + 1];
    C[i + 0] = B[i + 8];
    C[i + 1] = B[i + 9];
}
""")
        assert report.num_vectorized == 2


class TestDifferentialAcrossShapes:
    @pytest.mark.parametrize("offset", [0, 1, 7])
    def test_offsets(self, offset):
        source = """
long A[64], B[64], C[64];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
    A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
}
"""
        ref, transformed, report = vectorize(source)
        assert report.num_vectorized == 1
        out = compare_runs(ref, transformed, args={"i": offset}, seed=offset)
        assert out.equivalent, out.detail

    @pytest.mark.parametrize("seed", range(5))
    def test_random_memory_seeds(self, seed):
        source = """
unsigned long A[64], B[64], C[64], D[64], E[64];
void kernel(long i) {
    A[i + 0] = A[i + 0] & (B[i + 0] + C[i + 0]) & (D[i + 0] + E[i + 0]);
    A[i + 1] = (D[i + 1] + E[i + 1]) & (B[i + 1] + C[i + 1]) & A[i + 1];
}
"""
        ref, transformed, report = vectorize(source)
        assert report.num_vectorized == 1
        out = compare_runs(ref, transformed, args={"i": 2}, seed=seed)
        assert out.equivalent, out.detail
