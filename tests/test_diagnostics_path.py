"""One diagnostics path: one call per incident, records and counters
that match the remarks.

Every compile-path diagnostic is a single call on the function's
compile context (:class:`repro.robustness.DiagnosticEngine`).  The
sweep pins what that buys across the kernels, selection modes and
budgets that exercise every budget site:

* each ``CompileResult.remarks`` entry streams exactly one ``remark``
  record;
* ``degrade`` records and ``budget`` remarks pair one to one, each
  exhausted budget kind at most once per function;
* ``budget.exhausted.<kind>`` counts the ``degrade`` records of that
  kind;
* every record carries its ``function``, ``pass`` and ``config``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.kernels import ALL_KERNELS, MODULEWIDE_KERNELS, OVERLAP_KERNELS
from repro.kernels.catalog import Kernel
from repro.obs import metrics, records
from repro.obs.records import ListSink
from repro.opt.pipelines import compile_module
from repro.robustness import Budget, DiagnosticEngine
from repro.slp import PLAN_SELECT_MODES, VectorizerConfig

KERNELS = list(ALL_KERNELS.values()) + OVERLAP_KERNELS + MODULEWIDE_KERNELS
BUDGETS = {
    "wall-clock": Budget(max_seconds=0),
    "lookahead": Budget(max_lookahead_evals=1),
    "select": Budget(max_select_subsets=1),
    "module": Budget(max_module_lookahead_evals=10),
}


def _observed_compile(kernel, config, guard=None):
    module, _ = kernel.build()
    sink = ListSink()
    records.set_sink(sink)
    metrics.reset()
    metrics.set_publishing(True)
    try:
        results = compile_module(module, config, guard=guard)
    finally:
        records.set_sink(None)
        metrics.set_publishing(False)
    counters = metrics.registry().snapshot()
    metrics.reset()
    return results, sink.records, counters


@pytest.mark.parametrize("mode", PLAN_SELECT_MODES)
def test_remarks_records_and_counters_agree(mode):
    budget_remarks = 0
    for kernel in KERNELS:
        for budget in BUDGETS.values():
            config = replace(VectorizerConfig.lslp(), plan_select=mode,
                             budget=budget)
            results, emitted, counters = _observed_compile(kernel, config)
            where = (kernel.name, mode, budget)
            remarks = [remark for result in results
                       for remark in result.remarks]
            streamed = [r for r in emitted if r["type"] == "remark"]
            assert [(r["function"], r["pass"], r["category"],
                     r["message"]) for r in streamed] == [
                (x.function, x.pass_name, x.category, x.message)
                for x in remarks
            ], where
            degrade = [r for r in emitted if r["type"] == "degrade"]
            budget_remarks += len(degrade)
            assert [r["detail"] for r in degrade] == [
                x.message for x in remarks if x.category == "budget"
            ], where
            for kind, count in Counter(r["kind"] for r in degrade).items():
                assert counters[f"budget.exhausted.{kind}"] == count, where
            exhausted = [r for r in degrade if r["kind"] != "seed-abort"]
            assert counters.get("budget.exhaustions", 0) == len(exhausted)
            per_function = Counter((r["function"], r["kind"])
                                   for r in exhausted)
            assert set(per_function.values()) <= {1}, where
            for record in emitted:
                assert record["function"] and record["pass"], record
                assert record["config"] == "LSLP", record
    assert budget_remarks


def test_guarded_compile_reports_through_the_same_context():
    config = replace(VectorizerConfig.lslp(), plan_select="module-greedy",
                     budget=BUDGETS["module"])
    for kernel in MODULEWIDE_KERNELS:
        plain, plain_records, _ = _observed_compile(kernel, config)
        guarded, guarded_records, _ = _observed_compile(kernel, config,
                                                        guard="guarded")
        assert ([r.remarks for r in plain]
                == [r.remarks for r in guarded])
        assert plain_records == guarded_records


def test_loop_and_branch_declines_carry_their_pass():
    """Decline records used to carry ``pass: ""`` and no config."""
    config = replace(VectorizerConfig.lslp(), ifconvert="on")
    kernels = [ALL_KERNELS["loop-dot"], ALL_KERNELS["branchy-abs"]]
    seen = set()
    for kernel in kernels:
        results, emitted, _ = _observed_compile(kernel, config)
        for record in emitted:
            if record["type"] in ("loop.unroll", "ifconvert"):
                seen.add(record["type"])
                assert record["pass"] in ("unroll", "ifconvert")
                assert record["function"] == results[0].function.name
                assert record["config"] == "LSLP"
    assert "loop.unroll" in seen


def test_remarks_are_in_emission_order():
    """Unroll declines precede the SLP pass's budget remarks."""
    kernel = Kernel(name="rolled", origin="", description="", source="""
long A[64], B[64];
void kernel(long i, long n) {
    A[i + 0] = B[i + 0] + 1;
    A[i + 1] = B[i + 1] + 1;
    for (long j = 0; j < n; j = j + 1) {
        A[j] = B[j];
    }
}
""")
    config = replace(VectorizerConfig.lslp(), budget=BUDGETS["wall-clock"])
    [result], emitted, _ = _observed_compile(kernel, config)
    categories = [remark.category for remark in result.remarks]
    assert categories == ["loop-unroll", "budget", "budget"]
    assert [r["category"] for r in emitted
            if r["type"] == "remark"] == categories


def test_planning_only_trip_gets_a_plan_phase_remark():
    """A budget that trips only while planning used to leave a
    ``degrade`` record and no remark; it now reports once, from
    planning."""
    config = replace(VectorizerConfig.lslp(),
                     budget=Budget(max_lookahead_evals=20))
    found = []
    for kernel in KERNELS:
        results, emitted, _ = _observed_compile(kernel, config)
        for result in results:
            found += [r for r in result.remarks if r.phase == "plan"
                      and r.category == "budget"]
    assert found
    assert all(r.pass_name == "slp" and "look-ahead" in r.message
               for r in found)


def test_planning_meter_spans_the_function():
    """Planning's look-ahead cap bounds the whole function, not each
    block: ``@kernel`` of module-cross-block plans two blocks, and a
    cap of 5 stops planning at the eval that trips it (it spent 6 evals
    per block, and collected one planning event per block, when every
    block had a meter of its own)."""
    kernel = next(k for k in MODULEWIDE_KERNELS
                  if k.name == "module-cross-block")
    config = VectorizerConfig.lslp().with_budget(
        Budget(max_lookahead_evals=5))
    results, emitted, _ = _observed_compile(kernel, config)
    planned = [r for r in emitted
               if r["type"] == "plan.dump" and r["function"] == "kernel"]
    assert len({r["block"] for r in planned}) == 2
    assert sum(r["stats"]["lookahead_evals"] for r in planned) <= 6
    [result] = [r for r in results if r.function.name == "kernel"]
    budget = [r for r in result.remarks if r.category == "budget"]
    assert len(budget) == 1 and "look-ahead" in budget[0].message
    assert [r["kind"] for r in emitted if r["type"] == "degrade"
            and r["function"] == "kernel"] == ["lookahead"]


def test_engine_is_the_ambient_records_context():
    engine = DiagnosticEngine("kernel", "LSLP")
    sink = ListSink()
    records.set_sink(sink)
    try:
        with engine.open("unroll"):
            assert records.current() is engine
            engine.note("loop-unroll", "declined", record="loop.unroll",
                        event="declined", reason="r", header="h")
        assert records.current() is records.ROOT
    finally:
        records.set_sink(None)
    [remark] = engine.remarks
    assert (remark.function, remark.pass_name) == ("kernel", "unroll")
    assert [r["type"] for r in sink.records] == ["remark", "loop.unroll"]
    assert all((r["function"], r["pass"], r["config"])
               == ("kernel", "unroll", "LSLP") for r in sink.records)


def test_cli_budget_exhaustion_counts_once(tmp_path, capsys):
    """One wall-clock exhaustion: two remarks, both streamed, one
    ``degrade`` record each, and one ``budget.exhaustions``."""
    from repro.cli import main

    out = tmp_path / "budget.jsonl"
    assert main(["compile", "tests/lit/fig2_lslp.c",
                 "--max-compile-seconds", "0", "--remarks",
                 "--remarks-out", str(out), "--stats=json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = [line for line in lines if line.startswith("; warning: budget")]
    stats = json.loads(lines[-1])
    emitted = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(printed) == 2
    assert len([r for r in emitted if r["type"] == "remark"]) == 2
    assert sorted(r["kind"] for r in emitted
                  if r["type"] == "degrade") == ["seed-abort",
                                                 "wall-clock"]
    assert stats["budget.exhaustions"] == 1
