"""Tests for the if-conversion pass (repro.opt.ifconvert).

Covers the shape matcher (diamonds, triangles, nested regions), the
speculation/dereferenceability legality rules, the predicated-store
rewrites, the cost gate, diagnostics (remark + record + metric on every
decline), printer/parser round-trips of converted IR, and the
end-to-end claim: the branchy kernel family goes from zero vector
seeds to vectorized select trees under ``--ifconvert``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backend import cross_check
from repro.costmodel.targets import skylake_like
from repro.costmodel.tti import TargetCostModel
from repro.interp import compare_runs, run_on_fresh_memory
from repro.ir import (
    CondBr,
    I64,
    IRBuilder,
    Function,
    GlobalArray,
    Load,
    Module,
    parse_module,
    print_module,
    Select,
    Store,
    verify_function,
)
from repro.kernels import BRANCHY_KERNELS
from repro.obs import ListSink, metrics, records
from repro.opt import compile_function, IFCONVERT_MODES, run_ifconvert
from repro.opt.ifconvert import is_speculatable
from repro.slp import VectorizerConfig

TARGET = skylake_like()


def _build(source: str):
    from tests.conftest import build_kernel

    return build_kernel(source)


def _selects(func):
    return [i for b in func.blocks for i in b.instructions
            if isinstance(i, Select)]


def _condbrs(func):
    return [b.terminator for b in func.blocks
            if isinstance(b.terminator, CondBr)]


def _assert_equivalent(source: str, mode: str = "on", **args):
    """Converted (or declined) function computes what the original does."""
    reference = _build(source)
    module, func = _build(source)
    run_ifconvert(func, mode=mode, target=TARGET)
    verify_function(func)
    outcome = compare_runs(reference, (module, func),
                           args=args or {"i": 4}, seed=11)
    assert outcome.equivalent, outcome.detail
    return module, func


DIAMOND_ABS = """
long A[64], B[64];
void kernel(long i) {
    if (A[i + 0] < 0) { B[i + 0] = 0 - A[i + 0]; } else { B[i + 0] = A[i + 0]; }
}
"""

HAMMOCK_MAX = """
double B[64], C[64];
void kernel(long i) {
    if (C[i + 0] < B[i + 0]) { C[i + 0] = B[i + 0]; }
}
"""

NESTED_CLAMP = """
long A[64], B[64];
void kernel(long i) {
    if (A[i + 0] > 127) { B[i + 0] = 127; } else {
        if (A[i + 0] < 0 - 128) { B[i + 0] = 0 - 128; } else { B[i + 0] = A[i + 0]; }
    }
}
"""


class TestConversionShapes:
    def test_diamond_flattens_to_straight_line(self):
        module, func = _assert_equivalent(DIAMOND_ABS)
        assert not _condbrs(func)
        assert len(func.blocks) == 1
        # Both arms stored to B[i]: the pair merges into one select-fed
        # store, no guard load needed.
        stores = [i for i in func.entry if isinstance(i, Store)]
        assert len(stores) == 1
        assert not any(i.name.startswith("ifc.old")
                       for i in func.entry if isinstance(i, Load))
        assert any(s.name.startswith("ifc.merge") for s in _selects(func))

    def test_triangle_predicates_the_guarded_store(self):
        module, func = _assert_equivalent(HAMMOCK_MAX)
        assert not _condbrs(func)
        # The unpaired store keeps the old value on the skip path:
        # old = load p; store (select c, new, old), p.
        guard_loads = [i for b in func.blocks for i in b.instructions
                       if isinstance(i, Load)
                       and i.name.startswith("ifc.old")]
        assert len(guard_loads) == 1
        assert any(s.name.startswith("ifc.guard") for s in _selects(func))

    def test_nested_diamonds_convert_inner_first(self):
        module, func = _assert_equivalent(NESTED_CLAMP)
        assert not _condbrs(func)
        assert len(func.blocks) == 1
        # Two conditions remain as selects (upper clamp + lower clamp).
        assert len(_selects(func)) >= 2

    def test_mode_off_is_identity(self):
        module, func = _build(DIAMOND_ABS)
        blocks_before = len(func.blocks)
        assert run_ifconvert(func, mode="off") is False
        assert len(func.blocks) == blocks_before

    def test_unknown_mode_rejected(self):
        module, func = _build(DIAMOND_ABS)
        with pytest.raises(ValueError, match="unknown ifconvert mode"):
            run_ifconvert(func, mode="aggressive")
        assert "off" in IFCONVERT_MODES


class TestPhiRewrite:
    def _diamond_with_phi(self) -> tuple[Module, Function]:
        module = Module("m")
        a = module.add_global(GlobalArray("A", I64, 64))
        func = module.add_function(Function("f", [("i", I64)]))
        entry = func.add_block("entry")
        then = func.add_block("then")
        other = func.add_block("else")
        merge = func.add_block("merge")
        b = IRBuilder(entry)
        i = func.argument("i")
        x = b.load(b.gep(a, 0), "x")
        cond = b.icmp("slt", x, b.i64(0), "c")
        b.condbr(cond, then, other)
        b.set_block(then)
        neg = b.sub(b.i64(0), x, "neg")
        b.br(merge)
        b.set_block(other)
        dbl = b.add(x, x, "dbl")
        b.br(merge)
        b.set_block(merge)
        phi = b.phi(I64, "res")
        phi.add_incoming(neg, then)
        phi.add_incoming(dbl, other)
        b.store(phi, b.gep(a, i))
        b.ret()
        return module, func

    def test_phi_becomes_select(self):
        module, func = self._diamond_with_phi()
        assert run_ifconvert(func, mode="on", target=TARGET)
        verify_function(func)
        assert not _condbrs(func)
        assert not [p for blk in func.blocks for p in blk.phis()]
        selects = _selects(func)
        assert len(selects) == 1 and selects[0].name == "res"
        # The select keeps the phi's true/false orientation.
        reference_module, reference = self._diamond_with_phi()
        outcome = compare_runs((reference_module, reference),
                               (module, func), args={"i": 5}, seed=3)
        assert outcome.equivalent, outcome.detail

    def test_converted_ir_round_trips(self):
        module, func = self._diamond_with_phi()
        run_ifconvert(func, mode="on", target=TARGET)
        text = print_module(module)
        reparsed = print_module(parse_module(text))
        assert text == reparsed


class TestSpeculationRules:
    def test_pure_ops_speculate(self):
        module, func = _build(DIAMOND_ABS)
        sub = next(i for b in func.blocks for i in b.instructions
                   if i.opcode == "sub")
        assert is_speculatable(sub)

    def test_division_needs_constant_nonzero_divisor(self):
        module = Module("m")
        func = module.add_function(Function("f", [("i", I64)]))
        b = IRBuilder(func.add_block("entry"))
        by_const = b.sdiv(func.argument("i"), b.i64(4))
        by_zero = b.sdiv(func.argument("i"), b.i64(0))
        by_symbolic = b.sdiv(b.i64(8), func.argument("i"))
        b.ret()
        assert is_speculatable(by_const)
        assert not is_speculatable(by_zero)
        assert not is_speculatable(by_symbolic)

    def test_symbolic_division_declines_but_preserves_semantics(self):
        source = """
long A[64], B[64];
void kernel(long i, long k) {
    if (B[i + 0] < 0) { A[i + 0] = B[i + 0] / (k + 3); }
    else { A[i + 0] = B[i + 0]; }
}
"""
        module, func = _assert_equivalent(source, i=4, k=2)
        assert _condbrs(func)  # declined: divisor is symbolic


class TestLegalityNegatives:
    """The satellite-3 matrix: every illegal region declines with a
    structured remark, an ``ifconvert`` record and a metric bump — and
    never miscompiles."""

    def _run_declining(self, source: str, expected_reason: str, **args):
        sink = ListSink()
        previous = records.set_sink(sink)
        was_publishing = metrics.publishing()
        metrics.set_publishing(True)
        before = metrics.registry().counter("ifconvert.declined").value
        try:
            module, func = _build(source)
            converter_changed = run_ifconvert(func, mode="on",
                                              target=TARGET)
        finally:
            records.set_sink(previous)
            metrics.set_publishing(was_publishing)
        assert not converter_changed
        assert _condbrs(func), "CFG must be left untouched on decline"
        declined = [r for r in sink.records
                    if r["type"] == "ifconvert"
                    and r["event"] == "declined"]
        assert declined, "decline must stream an ifconvert record"
        assert expected_reason in declined[0]["reason"]
        remarks = [r for r in sink.records
                   if r["type"] == "remark"
                   and r.get("category") == "ifconvert"]
        assert remarks and expected_reason in remarks[0]["message"]
        after = metrics.registry().counter("ifconvert.declined").value
        assert after == before + len(declined)
        # ... and the function still computes the original answer.
        _assert_equivalent(source, **args)

    def test_guarded_store_to_unprovable_address(self):
        # The condition reads B, not A: nothing proves A[i] is safe to
        # touch on the path that skipped the store.
        self._run_declining("""
long A[64], B[64];
void kernel(long i) {
    if (B[i + 0] < 0) { A[i + 0] = 7; }
}
""", "guarded store address not provably dereferenceable")

    def test_side_effecting_call_in_arm(self):
        self._run_declining("""
long A[64], B[64];
long bump(long x) {
    A[0] = x;
    return x + 1;
}
void kernel(long i) {
    if (B[i + 0] < 0) { A[i + 1] = bump(B[i + 0]); }
}
""", "side-effecting call in arm")

    def test_cross_path_may_alias_stores(self):
        self._run_declining("""
long A[64], B[64];
void kernel(long i, long k) {
    if (B[i + 0] < 0) { A[i + 0] = 1; } else { A[k + 0] = 2; }
}
""", "cross-path stores may alias", i=4, k=9)

    def test_speculated_load_not_provably_in_bounds(self):
        # The else-arm load A[k] is skipped when the branch takes the
        # true path; k is symbolic, so speculation cannot prove it safe.
        self._run_declining("""
long A[64], B[64], C[64];
void kernel(long i, long k) {
    if (B[i + 0] < 0) { C[i + 0] = 0 - 1; } else { C[i + 0] = A[k + 0]; }
}
""", "speculated load not provably in bounds", i=4, k=9)


class TestCostGate:
    def test_expensive_selects_decline_under_cost_mode(self):
        pricey = TargetCostModel(
            replace(TARGET.desc, scalar_select_cost=50)
        )
        module, func = _build(DIAMOND_ABS)
        assert not run_ifconvert(func, mode="cost", target=pricey)
        assert _condbrs(func)
        # "on" ignores the price and converts anyway.
        module, func = _build(DIAMOND_ABS)
        assert run_ifconvert(func, mode="on", target=pricey)
        assert not _condbrs(func)

    def test_raw_ir_declines_with_cost_reason(self):
        # Before cleanup each arm recomputes the address chain, so the
        # speculated work outweighs the branch savings — the gate says
        # so in the decline reason.
        sink = ListSink()
        previous = records.set_sink(sink)
        try:
            module, func = _build(DIAMOND_ABS)
            assert not run_ifconvert(func, mode="cost", target=TARGET)
        finally:
            records.set_sink(previous)
        declined = [r for r in sink.records
                    if r["type"] == "ifconvert"
                    and r["event"] == "declined"]
        assert declined and "speculation cost" in declined[0]["reason"]

    def test_cleaned_ir_converts_under_cost_mode(self):
        # The pipeline folds/CSEs the per-arm address math before
        # if-conversion runs, which tips the same diamond profitable.
        config = replace(VectorizerConfig.lslp(), ifconvert="cost")
        module, func = _build(DIAMOND_ABS)
        compile_function(func, config, TARGET)
        assert not _condbrs(func)

    def test_decline_remark_reaches_compile_result(self):
        # What `lslp compile --remarks` prints: the pipeline must drain
        # the pass's decline remarks into CompileResult.remarks.
        config = replace(VectorizerConfig.lslp(), ifconvert="on")
        module, func = _build("""
long A[64], B[64];
void kernel(long i, long k) {
    if (B[i + 0] < 0) { A[k + 0] = 7; }
}
""")
        result = compile_function(func, config, TARGET)
        declines = [r for r in result.remarks
                    if r.category == "ifconvert"]
        assert declines
        assert "not provably dereferenceable" in declines[0].message


class TestBranchyKernelsEndToEnd:
    """The acceptance bar: every branchy catalog kernel goes from zero
    vector seeds to a vectorized select tree, with strictly lower
    simulated cycles and bit-identical semantics on both execution
    tiers."""

    @pytest.mark.parametrize("kernel", BRANCHY_KERNELS,
                             ids=lambda k: k.name)
    def test_zero_seeds_without_ifconvert(self, kernel):
        _, func = kernel.build()
        result = compile_function(func, VectorizerConfig.lslp(), TARGET)
        assert result.report.num_vectorized == 0

    @pytest.mark.parametrize("kernel", BRANCHY_KERNELS,
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("mode", ["on", "cost"])
    def test_vectorizes_with_ifconvert(self, kernel, mode):
        baseline_module, baseline = kernel.build()
        compile_function(baseline, VectorizerConfig.lslp(), TARGET)
        base_run, _ = run_on_fresh_memory(baseline_module, baseline,
                                          args=kernel.default_args,
                                          seed=0, target=TARGET)

        config = replace(VectorizerConfig.lslp(), ifconvert=mode)
        module, func = kernel.build()
        result = compile_function(func, config, TARGET)
        assert result.report.num_vectorized >= 1
        assert result.static_cost < 0
        run, _ = run_on_fresh_memory(module, func,
                                     args=kernel.default_args,
                                     seed=0, target=TARGET)
        assert run.cycles < base_run.cycles

    @pytest.mark.parametrize("kernel", BRANCHY_KERNELS,
                             ids=lambda k: k.name)
    def test_compiled_tier_matches_interpreter(self, kernel):
        config = replace(VectorizerConfig.lslp(), ifconvert="on")
        module, func = kernel.build()
        compile_function(func, config, TARGET)
        outcome = cross_check(module, func, TARGET,
                              base_args=kernel.default_args,
                              runs=2, base_seed=7)
        assert outcome.ok, outcome.render()

    def test_conversion_emits_converted_records(self):
        sink = ListSink()
        previous = records.set_sink(sink)
        try:
            _, func = BRANCHY_KERNELS[0].build()
            run_ifconvert(func, mode="on", target=TARGET)
        finally:
            records.set_sink(previous)
        converted = [r for r in sink.records
                     if r["type"] == "ifconvert"
                     and r["event"] == "converted"]
        assert len(converted) == 4  # one diamond per lane
        assert all(r["shape"] == "diamond" for r in converted)
