"""Unroll-and-SLP: LoopInfo/SCEV analyses, partial unrolling, the cost
gate, reduction packing, and the end-to-end ``--loop-vectorize`` mode.

The structural analyses (natural loops, add-recurrences, symbolic trip
counts) are unit-tested against hand-built IR; partial unrolling is
checked observationally (non-divisible and zero trip counts must hit
the scalar epilogue); the loopy kernel family asserts the acceptance
criteria — vector trees, a cycle win over the scalar loop, and
bit-identical execution on both backend tiers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.loops import (
    find_counted_loops,
    find_natural_loops,
    LoopInfo,
    match_counted_loop,
)
from repro.analysis.scev import AddRec, ScalarEvolution
from repro.backend import cross_check
from repro.costmodel.targets import skylake_like
from repro.frontend import compile_kernel_source, LowerError
from repro.interp import compare_runs
from repro.interp.interpreter import Interpreter
from repro.interp.memory import MemoryImage
from repro.ir import verify_function
from repro.kernels import LOOPY_KERNELS
from repro.obs import ListSink, metrics, records
from repro.opt import compile_function, run_unroll
from repro.opt.unroll import (
    partial_unroll,
    plan_loop_vectorize,
)
from repro.robustness import DiagnosticEngine
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel

TARGET = skylake_like()

DOT = """
long B[], C[];
long kernel(long n) {
    long s = 0;
    for (long j = 0; j < n; j = j + 1) {
        s = s + B[j] * C[j];
    }
    return s;
}
"""

NESTED = """
long A[64];
void kernel(long n) {
    for (long i = 0; i < n; i = i + 1) {
        for (long j = 0; j < 4; j = j + 1) {
            A[j] = A[j] + i;
        }
    }
}
"""


def _loopvec_config() -> VectorizerConfig:
    return replace(VectorizerConfig.lslp(), loop_vectorize=True)


# ---------------------------------------------------------------------------
# Natural-loop discovery and LoopInfo
# ---------------------------------------------------------------------------


class TestNaturalLoops:
    def test_single_loop_shape(self):
        module, func = build_kernel(DOT)
        loops = find_natural_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header.name == "loop.header"
        assert loop.depth == 1
        assert loop.parent is None
        assert loop.preheader() is not None
        assert [b.name for b in loop.exits()] == ["loop.exit"]

    def test_nesting_and_depths(self):
        module, func = build_kernel(NESTED)
        loops = find_natural_loops(func)
        assert len(loops) == 2
        by_depth = sorted(loops, key=lambda l: l.depth)
        outer, inner = by_depth
        assert outer.depth == 1 and inner.depth == 2
        assert inner.parent is outer
        assert outer.contains(inner.header)
        info = LoopInfo(func)
        assert info.innermost(inner.header).header is inner.header
        assert info.depth(inner.header) == 2
        assert info.depth(func.blocks[0]) == 0

    def test_straight_line_has_no_loops(self):
        source = """
long A[64], B[64];
void kernel(long i) {
    A[i + 0] = B[i + 0];
    A[i + 1] = B[i + 1];
}
"""
        module, func = build_kernel(source)
        assert find_natural_loops(func) == []


class TestCountedLoopMatching:
    def test_accumulator_loop_matches(self):
        module, func = build_kernel(DOT)
        infos = find_counted_loops(func)
        assert len(infos) == 1
        info = infos[0]
        assert info.step == 1
        assert info.predicate == "slt"
        assert not info.is_constant          # symbolic bound: %n
        assert len(info.accumulators) == 1
        acc = info.accumulators[0]
        assert acc.phi.name.startswith("s")
        assert info.phis_escape               # s is returned after the loop

    def test_constant_trip_count(self):
        source = """
long A[64], B[64];
void kernel(long i) {
    for (long j = 0; j < 9; j = j + 2) {
        A[j] = B[j];
    }
}
"""
        module, func = build_kernel(source)
        info = find_counted_loops(func)[0]
        assert info.is_constant
        assert info.trip_count(max_trip=64) == 5


# ---------------------------------------------------------------------------
# SCEV: add-recurrences and symbolic trip counts
# ---------------------------------------------------------------------------


class TestAddRec:
    def test_iv_phi_is_an_addrec(self):
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        scev = ScalarEvolution()
        rec = scev.add_recurrence(info.iv)
        assert isinstance(rec, AddRec)
        assert rec.step == 1
        assert rec.init.is_constant and rec.init.offset == 0
        assert rec.value_at(3).offset == 3

    def test_non_phi_is_not_an_addrec(self):
        module, func = build_kernel(DOT)
        scev = ScalarEvolution()
        assert scev.add_recurrence(func.argument("n")) is None

    def test_symbolic_trip_count(self):
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        scev = ScalarEvolution()
        trips = scev.trip_count(info.init, info.step, info.bound,
                                info.predicate)
        assert trips is not None and not trips.is_constant

    def test_constant_trip_count_ceil_division(self):
        source = """
long A[64], B[64];
void kernel(long i) {
    for (long j = 1; j <= 10; j = j + 3) {
        A[j] = B[j];
    }
}
"""
        module, func = build_kernel(source)
        info = find_counted_loops(func)[0]
        scev = ScalarEvolution()
        trips = scev.trip_count(info.init, info.step, info.bound,
                                info.predicate)
        assert trips.is_constant and trips.offset == 4  # j = 1,4,7,10


# ---------------------------------------------------------------------------
# Partial unrolling: semantics across trip-count shapes
# ---------------------------------------------------------------------------


class TestPartialUnroll:
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 7, 8, 17, 64])
    def test_epilogue_handles_every_remainder(self, n):
        reference = build_kernel(DOT)
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        assert partial_unroll(func, info, factor=4) is not None
        verify_function(func)
        outcome = compare_runs(reference, (module, func),
                               args={"n": n}, seed=n)
        assert outcome.equivalent, outcome.detail

    def test_rejects_factor_below_two(self):
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        assert partial_unroll(func, info, factor=1) is None

    def test_body_is_cloned_factor_times(self):
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        partial_unroll(func, info, factor=4)
        main_body = next(b for b in func.blocks
                         if b.name.startswith("main.body"))
        muls = [i for i in main_body.instructions
                if getattr(i, "opcode", "") == "mul"]
        assert len(muls) == 4


class TestCostGate:
    def test_dot_product_is_profitable(self):
        module, func = build_kernel(DOT)
        info = find_counted_loops(func)[0]
        factor, reason = plan_loop_vectorize(info, TARGET)
        assert factor == 4, reason

    def test_serial_body_stays_scalar(self):
        # Nothing packs: the loop-carried chain is the whole body.
        source = """
long B[];
long kernel(long n) {
    long s = 0;
    for (long j = 0; j < n; j = j + 1) {
        s = (s >> 1) - B[j];
    }
    return s;
}
"""
        module, func = build_kernel(source)
        info = find_counted_loops(func)[0]
        factor, reason = plan_loop_vectorize(info, TARGET)
        assert factor == 0


# ---------------------------------------------------------------------------
# run_unroll: decline diagnostics and the partial-unroll path
# ---------------------------------------------------------------------------


def _run_with_observability(func, **kwargs):
    sink = ListSink()
    previous = records.set_sink(sink)
    was_publishing = metrics.publishing()
    metrics.set_publishing(True)
    declined_before = metrics.registry().counter(
        "loop.unroll.declined").value
    partial_before = metrics.registry().counter(
        "loop.unroll.partial").value
    context = DiagnosticEngine(func.name)
    try:
        with context.open("unroll"):
            run_unroll(func, **kwargs)
        remarks = context.remarks
    finally:
        records.set_sink(previous)
        metrics.set_publishing(was_publishing)
    declined = metrics.registry().counter(
        "loop.unroll.declined").value - declined_before
    partial = metrics.registry().counter(
        "loop.unroll.partial").value - partial_before
    return sink, remarks, declined, partial


class TestRunUnrollDiagnostics:
    def test_symbolic_trip_declines_with_remark_and_metric(self):
        module, func = build_kernel(DOT)
        sink, remarks, declined, partial = _run_with_observability(func)
        assert declined == 1 and partial == 0
        assert len(remarks) == 1
        assert remarks[0].category == "loop-unroll"
        assert "symbolic" in remarks[0].message
        events = [r for r in sink.records
                  if r["type"] == "loop.unroll"
                  and r["event"] == "declined"]
        assert events and "symbolic" in events[0]["reason"]

    def test_above_cap_trip_mentions_the_cap(self):
        source = """
long A[1200], B[1200];
void kernel(long i) {
    for (long j = 0; j < 1200; j = j + 1) {
        A[j] = B[j];
    }
}
"""
        module, func = build_kernel(source)
        sink, remarks, declined, partial = _run_with_observability(func)
        assert declined == 1
        assert "--unroll-max-trip" in remarks[0].remediation

    def test_raised_cap_fully_unrolls(self):
        source = """
long A[300], B[300];
void kernel(long i) {
    for (long j = 0; j < 300; j = j + 1) {
        A[j] = B[j];
    }
}
"""
        module, func = build_kernel(source)
        run_unroll(func, max_trip_count=512)
        assert find_natural_loops(func) == []

    def test_loop_vectorize_partial_unrolls_with_metric(self):
        module, func = build_kernel(DOT)
        sink, remarks, declined, partial = _run_with_observability(
            func, loop_vectorize=True, target=TARGET
        )
        assert partial == 1 and declined == 0
        assert not remarks
        events = [r for r in sink.records
                  if r["type"] == "loop.unroll"
                  and r["event"] == "partial"]
        assert events and "factor=4" in events[0]["reason"]
        verify_function(func)


# ---------------------------------------------------------------------------
# Frontend: loop-carried accumulator assignments
# ---------------------------------------------------------------------------


class TestFrontendAssignments:
    def test_undefined_name_rejected(self):
        with pytest.raises(LowerError, match="undefined"):
            compile_kernel_source(
                "long kernel(long n) { s = n; return s; }"
            )

    def test_loop_variable_reassignment_rejected(self):
        with pytest.raises(LowerError, match="loop variable"):
            compile_kernel_source("""
long kernel(long n) {
    long s = 0;
    for (long j = 0; j < n; j = j + 1) { j = j + 2; }
    return s;
}
""")

    def test_assignment_inside_if_rejected(self):
        with pytest.raises(LowerError, match="\\?:"):
            compile_kernel_source("""
long B[64];
long kernel(long n) {
    long s = 0;
    if (n < 4) { s = B[0]; }
    return s;
}
""")

    def test_accumulator_value_after_loop(self):
        module = compile_kernel_source("""
long kernel(long n) {
    long s = 3;
    for (long j = 0; j < n; j = j + 1) {
        s = s + 2;
    }
    return s;
}
""")
        func = module.get_function("kernel")
        mem = MemoryImage(module)
        result = Interpreter(mem, TARGET).run(func, {"n": 5})
        assert result.return_value == 13


# ---------------------------------------------------------------------------
# CLI and config threading
# ---------------------------------------------------------------------------


class TestConfigThreading:
    def test_cli_flags_reach_the_config(self):
        from repro.cli import _config_from_args, build_parser

        args = build_parser().parse_args([
            "compile", "kernel.c",
            "--loop-vectorize", "--unroll-max-trip", "512",
        ])
        config = _config_from_args(args)
        assert config.loop_vectorize is True
        assert config.unroll_max_trip == 512

        plain = _config_from_args(
            build_parser().parse_args(["compile", "kernel.c"])
        )
        assert plain.loop_vectorize is False
        assert plain.unroll_max_trip is None

    def test_fingerprint_distinguishes_loop_vectorize(self):
        from repro.service.cache import config_fingerprint

        base = config_fingerprint(VectorizerConfig.lslp())
        loopvec = config_fingerprint(
            replace(VectorizerConfig.lslp(), loop_vectorize=True)
        )
        assert base != loopvec
        assert "loop_vectorize" in base and "unroll_max_trip" in base


# ---------------------------------------------------------------------------
# Acceptance: the loopy kernel family end to end
# ---------------------------------------------------------------------------


class TestLoopyKernels:
    @pytest.mark.parametrize("kernel", LOOPY_KERNELS,
                             ids=lambda k: k.name)
    def test_vectorizes_and_beats_scalar(self, kernel):
        ref_module, ref_func = kernel.build()
        module, func = kernel.build()
        result = compile_function(func, _loopvec_config(), TARGET)
        verify_function(func)
        assert result.report.num_vectorized >= 1

        mem_ref = MemoryImage(ref_module)
        mem_ref.randomize(11)
        mem_vec = MemoryImage(module)
        mem_vec.randomize(11)
        scalar = Interpreter(mem_ref, TARGET).run(
            ref_func, kernel.default_args)
        vector = Interpreter(mem_vec, TARGET).run(
            func, kernel.default_args)
        assert vector.return_value == scalar.return_value
        assert mem_ref.arrays() == mem_vec.arrays()
        assert vector.cycles < scalar.cycles

    @pytest.mark.parametrize("kernel", LOOPY_KERNELS,
                             ids=lambda k: k.name)
    def test_both_tiers_cross_check(self, kernel):
        module, func = kernel.build()
        compile_function(func, _loopvec_config(), TARGET)
        outcome = cross_check(module, func, TARGET,
                              base_args=kernel.default_args, runs=2)
        assert outcome.ok, outcome.render()

    def test_flag_off_is_byte_stable(self):
        """Without --loop-vectorize the pipeline must not touch the
        loop beyond what it always did."""
        from repro.ir.printer import print_function
        module, func = LOOPY_KERNELS[0].build()
        compile_function(func, VectorizerConfig.lslp(), TARGET)
        before = print_function(func)
        module2, func2 = LOOPY_KERNELS[0].build()
        compile_function(func2, VectorizerConfig.lslp(), TARGET)
        assert print_function(func2) == before
        assert any(b.name == "loop.header" for b in func.blocks)
