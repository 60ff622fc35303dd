"""The applier emits the planner's graphs where a rebuild is provably
the same.

* **Equivalence**: every catalog kernel compiles to the same IR, tree
  records, build stats, remarks and record stream (less the ``reorder``
  records a reused tree no longer streams twice) whether plans are
  reused or every tree is rebuilt, across configs, selection modes and
  budgets that do and do not trip.
* **Build counts**: a reused tree makes no apply-time
  ``GraphBuilder.build``; the second tree of a function, and a tree
  whose charge would cross the module look-ahead cap, are rebuilt.
* **The budget rule**: a plan is refused past the plan meter's count
  or after a budget event.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.frontend import compile_kernel_source
from repro.ir import print_module
from repro.kernels import ALL_KERNELS
from repro.obs import records
from repro.obs.records import ListSink
from repro.opt.pipelines import compile_module
from repro.robustness.budget import Budget, BudgetMeter
from repro.slp import plan as plan_mod
from repro.slp.builder import GraphBuilder
from repro.slp.cost import GraphCost
from repro.slp.graph import SLPGraph
from repro.slp.plan import Applier, TreePlan
from repro.slp.vectorizer import VectorizerConfig

LSLP = VectorizerConfig.lslp()
CONFIGS = (
    VectorizerConfig.slp(),
    LSLP,
    replace(LSLP, name="LSLP-exhaustive", reorder_strategy="exhaustive"),
    replace(LSLP, name="LSLP-full", ifconvert="on", loop_vectorize=True),
)
MODES = ("legacy", "module-greedy", "module-exhaustive")
BUDGETS = (
    None,
    Budget.reduced(),
    Budget(max_lookahead_evals=4),
    Budget(max_reorder_assignments=1),
    Budget(max_module_lookahead_evals=3),
)

ONE_TREE = """
long A[1024], B[1024], C[1024];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
    A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
}
"""

TWO_TREES = """
long A[1024], B[1024], C[1024], D[1024];
void kernel(long i) {
    A[i + 0] = B[i + 0] + C[i + 0];
    A[i + 1] = B[i + 1] + C[i + 1];
    D[i + 0] = B[i + 2] * C[i + 2];
    D[i + 1] = B[i + 3] * C[i + 3];
}
"""


@pytest.fixture
def counters(monkeypatch):
    """Count reuses and the graph builds made while a block is being
    applied (plan-time builds run before ``Applier.apply``)."""
    counts = {"reused": 0, "apply_builds": 0, "applying": False}
    real_build, real_apply = GraphBuilder.build, Applier.apply
    real_reusable = plan_mod._reusable

    def build(self, seeds):
        counts["apply_builds"] += counts["applying"]
        return real_build(self, seeds)

    def apply(self, *args, **kwargs):
        counts["applying"] = True
        try:
            return real_apply(self, *args, **kwargs)
        finally:
            counts["applying"] = False

    def reusable(plan, meter):
        verdict = real_reusable(plan, meter)
        counts["reused"] += verdict
        return verdict

    monkeypatch.setattr(GraphBuilder, "build", build)
    monkeypatch.setattr(Applier, "apply", apply)
    monkeypatch.setattr(plan_mod, "_reusable", reusable)
    return counts


def _compile(source: str, config: VectorizerConfig) -> dict:
    module = compile_kernel_source(source)
    sink = ListSink()
    records.set_sink(sink)
    try:
        results = compile_module(module, config)
    finally:
        records.set_sink(None)
    return {
        "ir": print_module(module),
        "trees": [[(t.kind, t.vector_length, t.cost, t.vectorized,
                    t.schedulable, t.description) for t in r.report.trees]
                  for r in results],
        "stats": [r.report.stats for r in results],
        "remarks": [[m.render() for m in r.remarks] for r in results],
        "records": [rec for rec in sink.records
                    if rec["type"] != "reorder"],
    }


@pytest.mark.parametrize("base", CONFIGS, ids=lambda config: config.name)
def test_reuse_matches_rebuild_on_catalog(monkeypatch, counters, base):
    for kernel in ALL_KERNELS.values():
        for mode in MODES:
            for budget in BUDGETS:
                config = replace(base, plan_select=mode, budget=budget)
                case = (kernel.name, mode, budget)
                before = counters["reused"]
                reused = _compile(kernel.source, config)
                if (budget is None and any(reused["trees"])
                        and counters["reused"] == before):
                    pytest.fail(f"no plan reused: {case}")
                with monkeypatch.context() as patch:
                    patch.setattr(plan_mod, "_reusable",
                                  lambda plan, meter: False)
                    rebuilt = _compile(kernel.source, config)
                assert reused == rebuilt, case


def _apply_builds(counters, source, config):
    counters["apply_builds"] = 0
    module = compile_kernel_source(source)
    [result] = compile_module(module, config)
    return counters["apply_builds"], result.report


def test_one_tree_function_makes_no_apply_time_build(counters):
    builds, report = _apply_builds(counters, ONE_TREE, LSLP)
    assert report.num_vectorized == 1
    assert builds == 0


def test_second_applied_tree_is_rebuilt(counters):
    builds, report = _apply_builds(counters, TWO_TREES, LSLP)
    assert report.num_vectorized == 2
    assert builds == 1


def test_charge_crossing_the_module_cap_rebuilds(counters):
    _, report = _apply_builds(counters, ONE_TREE, LSLP)
    evals = report.stats.lookahead_evals
    assert evals > 0
    roomy = LSLP.with_budget(Budget(max_module_lookahead_evals=evals + 1))
    assert _apply_builds(counters, ONE_TREE, roomy)[0] == 0
    tight = LSLP.with_budget(Budget(max_module_lookahead_evals=evals))
    assert _apply_builds(counters, ONE_TREE, tight)[0] == 1


def test_budget_rule_is_monotone_in_the_eval_count():
    """A plan built from a meter count below the apply meter's might
    have passed a check a rebuild fails; so might one whose build noted
    a budget event."""
    plan = TreePlan(kind="store", vector_length=2, seed=None,
                    graph=SLPGraph(), tree_cost=GraphCost(),
                    evals_at_start=3, constrained=False)
    meter = BudgetMeter(Budget(max_lookahead_evals=10))
    meter.charge_lookahead(3)
    assert plan_mod._reusable(plan, meter)
    meter.charge_lookahead(1)
    assert not plan_mod._reusable(plan, meter)
    assert not plan_mod._reusable(replace(plan, constrained=True),
                                  BudgetMeter())
