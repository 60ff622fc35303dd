"""Tests for the guarded compilation driver (repro.robustness).

Covers function cloning, snapshot/rollback, the strict-mode error
taxonomy, resource budgets, the differential-execution oracle, and the
CLI surface (``--strict`` / ``--remarks`` / ``run --verify`` plus the
``--arg`` and configuration-warning satellites).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import repro.robustness.guard as guard_module
from repro.backend.validate import cross_check
from repro.cli import main
from repro.costmodel.targets import skylake_like
from repro.interp import compare_runs, Interpreter, MemoryImage
from repro.interp.differential import seeded_arg_sets
from repro.ir import (
    BinaryOperator,
    clone_function,
    Constant,
    Function,
    GlobalArray,
    I32,
    I64,
    IRBuilder,
    matches_clone,
    Module,
    print_function,
    Store,
    vector_of,
    verify_function,
)
from repro.kernels import ALL_KERNELS
from repro.obs import records
from repro.obs.records import ListSink
from repro.opt import compile_function, compile_module, PassManager
from repro.opt.pipelines import build_pipeline
from repro.robustness import (
    Budget,
    BudgetMeter,
    DiagnosticEngine,
    DifferentialOracle,
    FaultInjector,
    FaultSpec,
    FunctionSnapshot,
    GuardPolicy,
    InvalidIRError,
    MiscompileError,
    PassCrashError,
    PassGuard,
    Remark,
    Severity,
)
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel

KERNEL = """
double A[1024], B[1024], C[1024], D[1024];
void kernel(long i) {
    A[i + 0] = B[i + 0]*C[i + 0] + C[i + 0]*D[i + 0] + B[i + 0]*D[i + 0];
    A[i + 1] = D[i + 1]*B[i + 1] + B[i + 1]*C[i + 1] + D[i + 1]*C[i + 1];
    A[i + 2] = B[i + 2]*C[i + 2] + C[i + 2]*D[i + 2] + B[i + 2]*D[i + 2];
    A[i + 3] = D[i + 3]*B[i + 3] + B[i + 3]*C[i + 3] + D[i + 3]*C[i + 3];
}
"""

ARGS = {"i": 8}


def build():
    return build_kernel(KERNEL)


# ---------------------------------------------------------------------------
# clone_function
# ---------------------------------------------------------------------------


class TestCloneFunction:
    def test_clone_prints_identically(self):
        _, func = build()
        clone = clone_function(func)
        assert print_function(clone) == print_function(func).replace(
            f"@{func.name}", f"@{clone.name}", 1
        )

    def test_clone_verifies(self):
        _, func = build()
        verify_function(clone_function(func))

    def test_clone_is_independent(self):
        _, func = build()
        before = print_function(func)
        clone = clone_function(func)
        # Mutating the clone must not disturb the original.
        clone.blocks[0].instructions[0].name = "tampered"
        assert print_function(func) == before
        verify_function(func)

    def test_clone_survives_optimization_of_original(self):
        _, func = build()
        clone = clone_function(func)
        compile_function(func, VectorizerConfig.lslp())
        verify_function(clone)

    def test_clone_with_control_flow(self):
        """Loops exercise phi back-edges in the two-pass operand fixup."""
        module, func = build_kernel(
            """
            long A[64], B[64];
            void kernel(long n) {
                for (long j = 0; j < n; j = j + 1) {
                    A[j] = B[j] + 1;
                }
            }
            """
        )
        clone = clone_function(func)
        verify_function(clone)
        outcome = compare_runs(
            (module, func), (module, clone), args={"n": 8}
        )
        assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# FunctionSnapshot
# ---------------------------------------------------------------------------


class TestFunctionSnapshot:
    def test_restore_undoes_mutation(self):
        _, func = build()
        before = print_function(func)
        snapshot = FunctionSnapshot(func)
        compile_function(func, VectorizerConfig.lslp())
        assert print_function(func) != before
        snapshot.restore()
        assert print_function(func) == before
        verify_function(func)

    def test_restore_is_single_use(self):
        _, func = build()
        snapshot = FunctionSnapshot(func)
        snapshot.restore()
        assert not snapshot.live
        with pytest.raises(RuntimeError):
            snapshot.restore()

    def test_restored_function_recompiles(self):
        """After a rollback the same Function object must still be a
        valid pipeline input (the guard keeps compiling with it)."""
        _, func = build()
        snapshot = FunctionSnapshot(func)
        compile_function(func, VectorizerConfig.lslp())
        snapshot.restore()
        result = compile_function(func, VectorizerConfig.lslp())
        verify_function(func)
        assert result.report.num_vectorized > 0


# ---------------------------------------------------------------------------
# Guarded pass execution
# ---------------------------------------------------------------------------


class TestPassGuard:
    def test_raising_pass_rolls_back_and_continues(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("instcombine", "raise"))
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert result.rolled_back == ["instcombine"]
        # The rest of the pipeline still ran: the kernel vectorized.
        assert result.report.num_vectorized > 0
        rollback = [r for r in result.remarks if r.category == "rollback"]
        assert len(rollback) == 1
        assert rollback[0].pass_name == "instcombine"
        assert rollback[0].function == func.name
        assert rollback[0].remediation

    def test_slp_rollback_degrades_to_scalar(self):
        module, func = build()
        faults = FaultInjector(FaultSpec("slp", "raise"))
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert result.fell_back_to_scalar
        reference, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (reference, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_corrupt_ir_caught_by_verifier(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("dce", "corrupt-detach"), seed=3)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert "dce" in result.rolled_back
        remark = next(r for r in result.remarks if r.pass_name == "dce")
        assert remark.phase == "verify"

    def test_uncloneable_ir_recovers_via_last_good_snapshot(self):
        """A type clobber survives the verifier but crashes the next
        pass's snapshot clone; the guard must fall back to its retained
        known-good state instead of propagating the clone error."""
        module, func = build()
        faults = FaultInjector(
            FaultSpec("instcombine", "corrupt-type-clobber"), seed=1
        )
        oracle = DifferentialOracle(module, args=ARGS)
        result = compile_function(
            func, VectorizerConfig.lslp(),
            guard=GuardPolicy(oracle=oracle, oracle_reference="input"),
            faults=faults,
        )
        verify_function(func)
        ref_module, ref_func = build()
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    @pytest.mark.parametrize("mode", ["module-greedy",
                                      "module-exhaustive"])
    @pytest.mark.parametrize("kernel", ["453.boy-surface",
                                        "fig8-walkthrough"])
    def test_module_plans_made_again_after_last_pass_rollback(self, kernel,
                                                              mode):
        """A clobber after the last scalar pass is caught only when the
        ``slp`` snapshot fails; the guard then swaps in an earlier body,
        so plans made on the replaced blocks must not be applied.  In
        every mode the function is planned again, says so, and
        vectorizes as first-fit does."""
        outcomes = {}
        for plan_select in ("legacy", mode):
            module, func = ALL_KERNELS[kernel].build()
            faults = FaultInjector(
                FaultSpec("dce-post-unroll", "corrupt-type-clobber"),
                seed=7,
            )
            config = replace(VectorizerConfig.lslp(),
                             plan_select=plan_select)
            [result] = compile_module(module, config, guard="guarded",
                                      faults=faults)
            verify_function(func)
            assert result.rolled_back == ["dce-post-unroll"]
            outcomes[plan_select] = (result.report.num_vectorized,
                                     result.static_cost,
                                     print_function(func))
            replanned = [r for r in result.remarks if r.category == "plan"]
            assert len(replanned) == 1
        assert outcomes[mode] == outcomes["legacy"]
        assert outcomes[mode][0] > 0

    def test_stale_module_plans_get_a_verdict(self):
        """The plans a rollback made stale are rejected as ``stale``, so
        every ``plan`` record still gets exactly one verdict."""
        module, _ = ALL_KERNELS["453.boy-surface"].build()
        faults = FaultInjector(
            FaultSpec("dce-post-unroll", "corrupt-type-clobber"), seed=7,
        )
        config = replace(VectorizerConfig.lslp(),
                         plan_select="module-greedy")
        sink = ListSink()
        records.set_sink(sink)
        try:
            compile_module(module, config, guard="guarded", faults=faults)
        finally:
            records.set_sink(None)
        plans = [r for r in sink.records if r["type"] == "plan.dump"]
        planned = [r for r in sink.records if r["type"] == "plan"]
        verdicts = [r for r in sink.records
                    if r["type"] in ("select", "reject")]
        assert len(planned) == len(verdicts) == 5
        stale = [r for r in verdicts if r.get("reason") == "stale"]
        assert stale and len(stale) == len(
            [e for e in plans if e["reason"] == "stale"])

    def test_replanned_function_ignores_its_stale_verdicts(self):
        """Faults after every pass: the module verdicts name plan ids
        the function's second planning never made, and applying it
        must not look them up."""
        module, func = ALL_KERNELS["433.mult-su2"].build()
        faults = FaultInjector(FaultSpec("*", "corrupt-type-clobber"),
                               seed=7)
        config = replace(VectorizerConfig.lslp(),
                         plan_select="module-greedy")
        result = compile_function(func, config, guard="guarded",
                                  faults=faults)
        verify_function(func)
        assert "slp" not in result.rolled_back
        assert any(r.category == "plan" for r in result.remarks)

    def test_unguarded_compile_still_raises(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("instcombine", "raise"))
        with pytest.raises(Exception):
            compile_function(func, VectorizerConfig.lslp(), faults=faults)

    def test_guarded_result_unchanged_without_faults(self):
        _, plain_func = build()
        plain = compile_function(plain_func, VectorizerConfig.lslp())
        _, guarded_func = build()
        guarded = compile_function(
            guarded_func, VectorizerConfig.lslp(), guard="guarded"
        )
        assert print_function(plain_func) == print_function(guarded_func)
        assert plain.static_cost == guarded.static_cost
        assert guarded.rolled_back == []
        assert guarded.remarks == []

    def test_report_names_are_populated(self):
        """CompileResult.report must carry real names even under O3,
        where the vectorizer pass never runs."""
        _, func = build()
        result = compile_function(func, VectorizerConfig.o3())
        assert result.report.function == func.name
        assert result.report.config == "O3"


# ---------------------------------------------------------------------------
# Clone-on-change snapshots
# ---------------------------------------------------------------------------


def count_clones(monkeypatch) -> list[str]:
    """Record every snapshot clone the guard takes."""
    calls: list[str] = []
    real = guard_module.clone_function

    def counting(func, *args, **kwargs):
        calls.append(func.name)
        return real(func, *args, **kwargs)

    monkeypatch.setattr(guard_module, "clone_function", counting)
    return calls


def noop(func):
    return False


def boom(func):
    raise RuntimeError("boom")


def run_guarded(func, *passes, faults=None):
    guard = PassGuard()
    manager = PassManager(guard=guard)
    for name, pass_fn in passes:
        manager.add(name, pass_fn)
    if faults is not None:
        faults.instrument(manager)
    manager.run_function(func)
    return guard


class TestCloneOnChange:
    def test_no_op_pipeline_clones_once(self, monkeypatch):
        _, func = build()
        calls = count_clones(monkeypatch)
        run_guarded(func, *[(f"noop{k}", noop) for k in range(6)])
        assert calls == [func.name]

    def test_catalog_compile_clones_fewer_times_than_passes(
            self, monkeypatch):
        _, func = ALL_KERNELS["453.boy-surface"].build()
        calls = count_clones(monkeypatch)
        result = compile_function(func, VectorizerConfig.lslp(),
                                  guard="guarded")
        assert result.report.num_vectorized > 0
        assert 0 < len(calls) < len(result.timing.timings)

    def test_changed_flag_is_not_trusted(self):
        """A pass that edits the IR but returns False must not hand its
        pre-pass snapshot on: rolling back the next pass restores the
        edited state, not the older one."""
        _, func = build()
        seen: list[str] = []

        def sneaky(f):
            next(i for i in f.instructions()
                 if i.opcode == "fadd").swap_operands()
            return False

        def crash(f):
            seen.append(print_function(f))
            raise RuntimeError("boom")

        before = print_function(func)
        guard = run_guarded(func, ("sneaky", sneaky), ("crash", crash))
        assert guard.rolled_back == ["crash"]
        assert print_function(func) == seen[0] != before
        verify_function(func)

    def test_rollback_to_reused_snapshot_matches_fresh_one(self):
        """No-op then crash restores exactly what a lone crash does."""
        _, lone_func = build()
        lone = run_guarded(lone_func, ("boom", boom))
        _, func = build()
        before = print_function(func)
        guard = run_guarded(func, ("noop", noop), ("boom", boom))
        assert print_function(func) == before == print_function(lone_func)
        assert guard.rolled_back == lone.rolled_back == ["boom"]
        assert guard.diagnostics.remarks == lone.diagnostics.remarks
        [remark] = guard.diagnostics.remarks
        assert (remark.severity, remark.category, remark.pass_name,
                remark.phase) == (Severity.WARNING, "rollback", "boom",
                                  "transform")
        assert remark.message == "exception in pass: boom"
        verify_function(func)

    def test_type_clobber_after_no_op_recovers_via_last_good(self):
        _, func = build()
        before = print_function(func)
        faults = FaultInjector(FaultSpec("clobber", "corrupt-type-clobber"),
                               seed=0)
        guard = run_guarded(func, ("noop", noop), ("clobber", noop),
                            ("after", noop), faults=faults)
        assert faults.fired == [("clobber", "corrupt-type-clobber")]
        assert guard.rolled_back == ["clobber"]
        [remark] = guard.diagnostics.remarks
        assert "too corrupt to snapshot" in remark.message
        assert print_function(func) == before
        verify_function(func)

    def test_last_good_survives_rollback_of_reused_snapshot(self):
        """The crash consumes the snapshot the no-op pass committed; the
        guard must still hold a live recovery point for the clobber."""
        _, func = build()
        before = print_function(func)
        live: list[bool] = []
        guard = PassGuard()

        def probe(f):
            last = guard._last_good
            live.append(last is not None and last.live
                        and matches_clone(f, last.reference()))
            return False

        manager = (PassManager(guard=guard).add("noop", noop)
                   .add("boom", boom).add("probe", probe)
                   .add("clobber", noop).add("after", noop))
        FaultInjector(FaultSpec("clobber", "corrupt-type-clobber"),
                      seed=0).instrument(manager)
        manager.run_function(func)
        assert live == [True]
        assert guard.rolled_back == ["boom", "clobber"]
        assert print_function(func) == before
        verify_function(func)


class _Tagged(BinaryOperator):
    """Same opcode and fields as its base; only the class differs."""


def rich_function():
    """One function holding every field :func:`clone_function` copies:
    two arguments, a loop (phi, cmp, condbr, br), a shuffle and a call."""
    module = Module("m")
    array = module.add_global(GlobalArray("A", I64, 64))
    callees = []
    for name in ("callee", "other"):
        callee = module.add_function(Function(name, [("x", I64)], I64))
        IRBuilder(callee.add_block("entry")).ret(callee.argument("x"))
        callees.append(callee)
    func = module.add_function(Function("f", [("i", I64), ("n", I64)]))
    i, n = func.arguments
    entry, loop, done = (func.add_block(name)
                         for name in ("entry", "loop", "exit"))
    builder = IRBuilder(entry)
    builder.br(loop)
    builder.position_at_end(loop)
    phi = builder.phi(I64, "j")
    step = builder.add(phi, i)
    phi.add_incoming(i, entry)
    phi.add_incoming(step, loop)
    builder.condbr(builder.icmp("slt", step, n), loop, done)
    builder.position_before(loop.terminator)
    builder.icmp("eq", step, n)  # an unused second condition
    builder.position_at_end(done)
    vec = builder.build_vector([phi, step])
    shuffle = builder.shufflevector(vec, vec, [1, 0])
    lane = builder.extractelement(shuffle, 0)
    builder.store(builder.call(callees[0], [lane]), builder.gep(array, i))
    builder.ret()
    verify_function(func)
    return func, callees[1]


def first(func, opcode):
    return next(i for i in func.instructions() if i.opcode == opcode)


def _swap_blocks(func, other):
    func.blocks[1], func.blocks[2] = func.blocks[2], func.blocks[1]


def _retag(func, other):
    first(func, "add").__class__ = _Tagged


def _add_instruction(func, other):
    add = first(func, "add")
    add.parent.insert_before(add, BinaryOperator("add", add.lhs, add.rhs))


def _remove_instruction(func, other):
    store = first(func, "store")
    store.parent.remove(store)


def _swap_condbr(func, other):
    condbr = first(func, "condbr")
    condbr.on_true, condbr.on_false = condbr.on_false, condbr.on_true


#: (field, mutation): each edits exactly one field clone_function copies
FIELD_MUTATIONS = [
    ("argument name",
     lambda f, o: setattr(f.arguments[0], "name", "renamed")),
    ("argument type", lambda f, o: setattr(f.arguments[1], "type", I32)),
    ("block name", lambda f, o: setattr(f.blocks[2], "name", "renamed")),
    ("block order", _swap_blocks),
    ("instruction count (added)", _add_instruction),
    ("instruction count (removed)", _remove_instruction),
    ("instruction class", _retag),
    ("opcode", lambda f, o: setattr(first(f, "add"), "opcode", "mul")),
    ("type", lambda f, o: setattr(first(f, "add"), "type",
                                  vector_of(I64, 2))),
    ("name", lambda f, o: setattr(first(f, "add"), "name", "renamed")),
    ("operand", lambda f, o: first(f, "add").swap_operands()),
    ("phi incoming value",
     lambda f, o: first(f, "phi").set_operand(0, f.arguments[1])),
    ("phi edge", lambda f, o: first(f, "phi").incoming_blocks.reverse()),
    ("branch target", lambda f, o: setattr(first(f, "br"), "target",
                                           f.blocks[2])),
    ("condbr targets", _swap_condbr),
    ("condbr condition",
     lambda f, o: first(f, "condbr").set_operand(
         0, f.blocks[1].instructions[-2])),
    ("predicate", lambda f, o: setattr(first(f, "icmp"), "predicate",
                                       "sle")),
    ("mask", lambda f, o: setattr(first(f, "shufflevector"), "mask",
                                  (0, 1))),
    ("callee", lambda f, o: setattr(first(f, "call"), "callee", o)),
    ("name counts", lambda f, o: f.unique_name("fresh")),
]


class TestMatchesClone:
    def test_compiled_function_matches_its_clone(self):
        _, func = build()
        compile_function(func, VectorizerConfig.lslp())
        assert matches_clone(func, clone_function(func))

    def test_clone_of_another_state_does_not_match(self):
        _, func = build()
        clone = clone_function(func)
        compile_function(func, VectorizerConfig.lslp())
        assert not matches_clone(func, clone)

    @pytest.mark.parametrize(
        "mutate", [m for _, m in FIELD_MUTATIONS],
        ids=[name for name, _ in FIELD_MUTATIONS])
    def test_each_copied_field_is_compared(self, mutate):
        func, other = rich_function()
        clone = clone_function(func)
        assert matches_clone(func, clone)
        mutate(func, other)
        assert not matches_clone(func, clone)


class TestStrictMode:
    def test_strict_reraises_pass_crash(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("cse", "raise"))
        with pytest.raises(PassCrashError) as info:
            compile_function(
                func, VectorizerConfig.lslp(), guard="strict",
                faults=faults,
            )
        assert info.value.pass_name == "cse"
        assert info.value.function == func.name
        # Even strict mode restores the function before raising.
        verify_function(func)

    def test_strict_reraises_invalid_ir(self):
        _, func = build()
        faults = FaultInjector(
            FaultSpec("instcombine", "corrupt-dangling-operand"), seed=1
        )
        with pytest.raises(InvalidIRError):
            compile_function(
                func, VectorizerConfig.lslp(), guard="strict",
                faults=faults,
            )
        verify_function(func)

    def test_strict_reraises_miscompile(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=0
        )
        oracle = DifferentialOracle(module, args=ARGS)
        with pytest.raises(MiscompileError):
            compile_function(
                func, VectorizerConfig.lslp(),
                guard=GuardPolicy(mode="strict", oracle=oracle),
                faults=faults,
            )
        verify_function(func)

    def test_bad_guard_spec_rejected(self):
        _, func = build()
        with pytest.raises(ValueError, match="unknown guard"):
            compile_function(func, VectorizerConfig.lslp(), guard="bogus")
        with pytest.raises(ValueError, match="unknown guard mode"):
            GuardPolicy(mode="lenient")


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    def test_mismatch_rolls_back_to_scalar(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=0
        )
        oracle = DifferentialOracle(module, args=ARGS)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded",
            oracle=oracle, faults=faults,
        )
        verify_function(func)
        assert "oracle" in result.rolled_back
        assert result.fell_back_to_scalar
        miscompiles = [
            r for r in result.remarks if r.category == "miscompile"
        ]
        assert len(miscompiles) == 1
        assert miscompiles[0].severity is Severity.WARNING
        # The surviving function equals the clean scalar baseline.
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.lslp())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_clean_compile_passes_oracle(self):
        module, func = build()
        oracle = DifferentialOracle(module, args=ARGS, seeds=(0, 1, 2))
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", oracle=oracle
        )
        assert "oracle" not in result.rolled_back
        assert result.report.num_vectorized > 0

    def test_oracle_counts_interpreter_crash_as_mismatch(self):
        """IR whose execution fails (rather than producing wrong
        values) must also read as a mismatch, not raise."""
        module, func = build()
        oracle = DifferentialOracle(module, args=None)  # missing 'i'
        detail = oracle.check(func, func)
        assert detail is not None
        assert "execution failed" in detail

    def test_infinite_store_rolls_back(self):
        """A lane that turns infinite must not pass for a finite one."""
        module, func = build()
        before = print_function(func)

        def store_infinity(f):
            store = next(i for i in f.instructions() if isinstance(i, Store))
            store.set_operand(0, Constant(store.value.type, math.inf))
            return True

        oracle = DifferentialOracle(module, args=ARGS)
        guard = PassGuard(GuardPolicy(oracle=oracle))
        PassManager(guard=guard).add("slp", store_infinity).run_function(func)
        assert guard.run_oracle(func)
        assert guard.rolled_back == ["oracle"]
        assert "inf" in guard.diagnostics.remarks[0].message
        assert print_function(func) == before
        assert oracle.verified == ()

    def test_passing_check_keeps_one_run_per_seed(self):
        """Each kept run is exactly a fresh interpreter run of the final
        IR on that seed's image."""
        module, func = build()
        target = skylake_like()
        oracle = DifferentialOracle.sweeping(
            module, func, args=ARGS, runs=3, base_seed=4, target=target
        )
        compile_function(func, VectorizerConfig.lslp(), target,
                         guard="guarded", oracle=oracle)
        runs = oracle.runs_for(func, target)
        assert [run.seed for run in runs] == [4, 5, 6]
        assert [run.args for run in runs] == seeded_arg_sets(func, ARGS, 3, 4)
        for run in runs:
            fresh = MemoryImage(module)
            fresh.randomize(run.seed)
            assert run.image.arrays() == fresh.arrays()
            assert Interpreter(fresh, target).run(func, run.args) == run.result
            assert run.memory.arrays() == fresh.arrays()

    def test_runs_for_needs_the_checked_function_and_target(self):
        module, func = build()
        target = skylake_like()
        oracle = DifferentialOracle(module, args=ARGS, target=target)
        compile_function(func, VectorizerConfig.lslp(), target,
                         guard="guarded", oracle=oracle)
        assert len(oracle.runs_for(func, target)) == 1
        assert oracle.runs_for(func, skylake_like()) == ()
        assert oracle.runs_for(build()[1], target) == ()

    def test_every_check_resets_the_kept_runs(self):
        module, func = build()
        oracle = DifferentialOracle(module, args=ARGS)
        assert oracle.check(func, func) is None
        assert len(oracle.verified) == 1
        broken = clone_function(func)
        store = next(i for i in broken.instructions() if isinstance(i, Store))
        store.set_operand(0, Constant(store.value.type, math.nan))
        assert oracle.check(func, broken) is not None
        assert oracle.verified == ()
        assert oracle.runs_for(func, None) == ()

    def test_rollback_leaves_no_run_and_cross_check_interprets(
            self, exec_counts):
        module, func = build()
        target = skylake_like()
        oracle = DifferentialOracle.sweeping(module, func, args=ARGS, runs=2,
                                             target=target)
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=0
        )
        result = compile_function(func, VectorizerConfig.lslp(), target,
                                  guard="guarded", oracle=oracle,
                                  faults=faults)
        assert "oracle" in result.rolled_back
        assert oracle.verified == ()
        exec_counts.clear()
        check = cross_check(module, func, target, base_args=ARGS, runs=2,
                            verified=oracle.runs_for(func, target))
        assert check.ok and check.compiled_runs == 2
        assert exec_counts == {"runs": 2, "randomizations": 2}

    def test_input_reference_catches_scalar_miscompile(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("cse-post-unroll", "corrupt-swap-operands"), seed=1
        )
        oracle = DifferentialOracle(module, args=ARGS)
        policy = GuardPolicy(oracle=oracle, oracle_reference="input")
        result = compile_function(
            func, VectorizerConfig.lslp(), guard=policy, faults=faults
        )
        verify_function(func)
        ref_module, ref_func = build()
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_lookahead_budget_caps_evals(self):
        _, unlimited_func = build()
        unlimited = compile_function(
            unlimited_func, VectorizerConfig.lslp()
        )
        evals = unlimited.report.stats.lookahead_evals
        assert evals > 2, "kernel must exercise look-ahead"

        cap = 2
        _, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_lookahead_evals=cap)
        )
        result = compile_function(func, config)
        verify_function(func)
        assert result.report.stats.lookahead_evals <= cap + 1
        budget_remarks = [
            r for r in result.remarks if r.category == "budget"
        ]
        assert budget_remarks, "budget exhaustion must leave a remark"
        assert budget_remarks[0].pass_name == "slp"

    def test_exhausted_budget_still_correct(self):
        module, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_lookahead_evals=1)
        )
        compile_function(func, config)
        verify_function(func)
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_exhaustive_budget_falls_back_to_greedy(self):
        base = VectorizerConfig.lslp()
        exhaustive = VectorizerConfig(
            name="LSLP-X",
            enable_reordering=True,
            look_ahead_depth=base.look_ahead_depth,
            multi_node_max_size=None,
            reorder_strategy="exhaustive",
        )
        _, free_func = build()
        free = compile_function(free_func, exhaustive)
        free_evals = free.report.stats.lookahead_evals
        assert free_evals > 0

        from dataclasses import replace

        capped = replace(
            exhaustive,
            budget=Budget(max_reorder_assignments=1),
        )
        _, func = build()
        result = compile_function(func, capped)
        verify_function(func)
        assert result.report.stats.lookahead_evals < free_evals
        remarks = [r for r in result.remarks if r.category == "budget"]
        assert remarks, "greedy fallback must be recorded as a remark"
        assert any("greedy" in r.message for r in remarks)

    def test_wall_clock_budget_degrades_gracefully(self):
        module, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_seconds=0.0)
        )
        result = compile_function(func, config)
        verify_function(func)
        assert result.report.num_vectorized == 0
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_meter_dedups_events(self):
        meter = BudgetMeter(Budget(max_lookahead_evals=1))
        meter.start_function()
        for _ in range(10):
            meter.lookahead_allowed()
            meter.charge_lookahead()
        kinds = [event.kind for event in meter.events]
        assert kinds.count("lookahead") == 1

    def test_unlimited_budget_never_trips(self):
        meter = BudgetMeter(Budget.unlimited())
        meter.start_function()
        meter.charge_lookahead(10**9)
        assert meter.lookahead_allowed()
        assert not meter.time_exceeded()
        assert meter.events == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestRobustnessCLI:
    def test_run_verify_reports_match(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=8",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "outputs match" in out

    def test_run_verify_compiled_backend_shares_the_oracle_run(
            self, kernel_file, capsys, exec_counts):
        assert main(["run", kernel_file, "--arg", "i=8", "--verify",
                     "--backend", "compiled", "--verify-runs", "2",
                     "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "verify: @kernel scalar and LSLP outputs match "
            "(2 run(s), seeds 3..4)",
            "backend-verify: backend cross-check ok: 2 runs, 2 compiled, "
            "0 fallbacks",
        ]
        # Two oracle runs per seed, none in the cross-check; one image
        # per seed, plus the image the final compiled run executes on.
        assert exec_counts == {"runs": 4, "randomizations": 3}

    def test_run_verify_rejects_no_guard(self, kernel_file):
        with pytest.raises(SystemExit, match="verify requires"):
            main(["run", kernel_file, "--arg", "i=8", "--verify",
                  "--no-guard"])

    def test_missing_required_arg(self, kernel_file):
        with pytest.raises(SystemExit, match="requires argument"):
            main(["run", kernel_file])
        with pytest.raises(SystemExit, match="requires argument"):
            main(["run", kernel_file, "--verify"])

    def test_malformed_arg_value(self, kernel_file):
        with pytest.raises(SystemExit, match="not a number"):
            main(["run", kernel_file, "--arg", "i=abc"])

    def test_malformed_arg_shape(self, kernel_file):
        with pytest.raises(SystemExit, match="malformed --arg"):
            main(["run", kernel_file, "--arg", "i"])
        with pytest.raises(SystemExit, match="malformed --arg"):
            main(["run", kernel_file, "--arg", "=5"])

    def test_float_arg_still_parses(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=8",
                     "--arg", "x=1.5"]) == 0

    def test_lslp_knobs_warn_on_other_configs(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--config", "slp",
                     "--look-ahead", "4"]) == 0
        err = capsys.readouterr().err
        assert "--look-ahead ignored" in err
        assert "SLP" in err

    def test_no_warning_for_lslp(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--look-ahead", "4"]) == 0
        assert "ignored" not in capsys.readouterr().err

    def test_budget_remark_printed(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--remarks",
                     "--max-lookahead-evals", "2"]) == 0
        out = capsys.readouterr().out
        assert "warning: budget" in out

    def test_strict_cli_fails_cleanly(self, kernel_file, capsys, monkeypatch):
        import repro.cli as cli_module

        real = cli_module.compile_module

        def exploding(module, config, target=None, **kwargs):
            faults = FaultInjector(FaultSpec("dce", "raise"))
            return real(module, config, target, faults=faults, **kwargs)

        monkeypatch.setattr(cli_module, "compile_module", exploding)
        assert main(["compile", kernel_file, "--strict"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_guarded_cli_recovers(self, kernel_file, capsys, monkeypatch):
        import repro.cli as cli_module

        real = cli_module.compile_module

        def exploding(module, config, target=None, **kwargs):
            faults = FaultInjector(FaultSpec("dce", "raise"))
            return real(module, config, target, faults=faults, **kwargs)

        monkeypatch.setattr(cli_module, "compile_module", exploding)
        assert main(["compile", kernel_file]) == 0
        err = capsys.readouterr().err
        assert "rolled back" in err


# ---------------------------------------------------------------------------
# Diagnostics plumbing
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_remark_render(self):
        remark = Remark(
            Severity.WARNING, "rollback", "boom",
            function="kernel", pass_name="dce", remediation="fix it",
        )
        text = remark.render()
        assert "warning" in text and "@kernel" in text
        assert "'dce'" in text and "hint: fix it" in text

    def test_engine_collects_in_order(self):
        engine = DiagnosticEngine()
        engine.note("a", "first")
        engine.warning("b", "second")
        engine.error("c", "third")
        assert [r.category for r in engine.remarks] == ["a", "b", "c"]
        assert len(engine.render()) == 3

    def test_error_taxonomy_fields(self):
        error = PassCrashError(
            "kaboom", function="kernel", pass_name="cse",
            remediation="rerun",
        )
        assert error.phase == "transform"
        assert error.function == "kernel"
        assert "kaboom" in str(error)
        assert isinstance(error, Exception)
