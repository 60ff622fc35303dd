"""The plan/select/apply refactor's contract tests.

Two halves:

* **Differential**: ``--plan-select=legacy`` (the default) must be
  byte-for-byte the pre-refactor greedy driver.  A frozen copy of that
  driver lives here as :class:`ReferenceGreedy`; the catalog kernels and
  hypothesis-generated programs are compiled both ways and the final IR,
  tree records and build stats must match exactly.
* **Selection**: ``module-greedy`` never produces a worse total static
  cost than ``legacy`` (and ``module-exhaustive`` never worse than
  ``module-greedy``), every candidate plan is visible through the
  plan/select/reject and plan.dump records, and the budget knobs
  (seed-abort remark, plan-selection subset cap) surface as remarks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.analysis.aliasing import AliasAnalysis
from repro.analysis.scev import ScalarEvolution
from repro.costmodel.targets import skylake_like
from repro.ir import print_function
from repro.obs import records
from repro.obs.records import ListSink
from repro.opt import compile_function
from repro.opt.dce import run_dce
from repro.opt.pipelines import scalar_pipeline
from repro.robustness.budget import Budget
from repro.kernels import ALL_KERNELS, OVERLAP_KERNELS
from repro.service.serde import tree_from_dict, tree_to_dict
from repro.slp import PLAN_SELECT_MODES, VectorizerConfig
from repro.slp.builder import BuildStats, GraphBuilder
from repro.slp.codegen import VectorCodeGen
from repro.slp.cost import compute_graph_cost
from repro.slp.lookahead import LookAheadContext
from repro.slp.plan import MODULE_SELECT_MODES
from repro.slp.reductions import emit_reduction, plan_reduction
from repro.slp.seeds import (
    SeedGroup,
    collect_reduction_seeds,
    collect_store_seeds,
)
from tests.conftest import build_kernel
from tests.test_property_differential import kernels

CONFIGS = [
    VectorizerConfig.slp_nr(),
    VectorizerConfig.slp(),
    VectorizerConfig.lslp(),
]


# ---------------------------------------------------------------------------
# The frozen pre-refactor greedy driver
# ---------------------------------------------------------------------------


class ReferenceGreedy:
    """Frozen copy of the greedy in-place driver the plan/select/apply
    pipeline replaced: per seed try full width, descend to halves only
    on rejection, then the reduction loop.  Kept verbatim (minus
    observability) as the oracle for ``--plan-select=legacy``."""

    def __init__(self, config, target=None):
        self.config = config
        self.target = target if target is not None else skylake_like()
        self.trees: list[tuple] = []
        self.stats = BuildStats()

    def run_function(self, func) -> None:
        for block in func.blocks:
            self._run_block(block)

    def _run_block(self, block) -> None:
        ctx = LookAheadContext(ScalarEvolution())
        aa = AliasAnalysis(ctx.scev)
        for seed in collect_store_seeds(block, ctx.scev, self.target):
            if not seed.alive():
                continue
            self._vectorize_seed(seed, ctx, aa)
        if self.config.enable_reductions:
            for seed in collect_reduction_seeds(block):
                if not seed.alive():
                    continue
                record = self._try_reduction(seed, ctx, aa)
                if record is not None:
                    self.trees.append(record)

    def _vectorize_seed(self, seed, ctx, aa) -> None:
        record = self._try_store_tree(seed, ctx, aa)
        self.trees.append(record)
        vectorized = record[3]
        if vectorized or seed.vector_length < 4:
            return
        half = seed.vector_length // 2
        for part in (SeedGroup(seed.stores[:half]),
                     SeedGroup(seed.stores[half:])):
            if part.alive():
                self._vectorize_seed(part, ctx, aa)

    def _try_store_tree(self, seed, ctx, aa) -> tuple:
        builder = GraphBuilder(self.config.build_policy(), self.target,
                               ctx)
        graph = builder.build(seed.stores)
        self._absorb(builder.stats)
        cost = compute_graph_cost(graph, self.target)
        description = graph.dump()
        vectorized = False
        schedulable = False
        if not (graph.root is None or graph.root.is_gather):
            codegen = VectorCodeGen(graph, aa)
            schedulable = codegen.can_schedule()
            if schedulable and cost.total < self.config.cost_threshold:
                codegen.run()
                vectorized = True
        return ("store", seed.vector_length, cost.total, vectorized,
                schedulable, description)

    def _try_reduction(self, seed, ctx, aa):
        plan = plan_reduction(
            seed, self.config.build_policy(), self.target, ctx
        )
        if plan is None:
            return None
        # (the historical driver did not absorb reduction build stats)
        description = plan.graph.dump()
        vectorized = False
        schedulable = True
        if plan.total_cost < self.config.cost_threshold:
            vectorized = emit_reduction(plan, aa)
            if not vectorized:
                schedulable = False
        return ("reduction", plan.vector_length, plan.total_cost,
                vectorized, schedulable, description)

    def _absorb(self, stats: BuildStats) -> None:
        self.stats.nodes += stats.nodes
        self.stats.multi_nodes += stats.multi_nodes
        self.stats.gathers += stats.gathers
        self.stats.reorders += stats.reorders
        self.stats.lookahead_evals += stats.lookahead_evals


def reference_compile(func, config):
    """The pre-refactor pipeline: scalar passes, greedy SLP, cleanup."""
    scalar_pipeline().run_function(func)
    greedy = ReferenceGreedy(config)
    greedy.run_function(func)
    run_dce(func)
    return greedy


def tree_tuples(report):
    return [
        (t.kind, t.vector_length, t.cost, t.vectorized, t.schedulable,
         t.description)
        for t in report.trees
    ]


def stats_tuple(stats):
    return (stats.nodes, stats.multi_nodes, stats.gathers,
            stats.reorders, stats.lookahead_evals)


def assert_legacy_matches_reference(source, config):
    _, ref_func = build_kernel(source)
    reference = reference_compile(ref_func, config)
    module, func = build_kernel(source)
    result = compile_function(func, config)
    assert print_function(func) == print_function(ref_func), config.name
    assert tree_tuples(result.report) == reference.trees, config.name
    assert stats_tuple(result.report.stats) == stats_tuple(
        reference.stats
    ), config.name


# ---------------------------------------------------------------------------
# Differential: legacy == pre-refactor greedy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", list(ALL_KERNELS.values()) + OVERLAP_KERNELS,
    ids=lambda k: k.name
)
def test_legacy_matches_reference_on_catalog(kernel):
    for config in CONFIGS:
        assert_legacy_matches_reference(kernel.source, config)


@settings(max_examples=40, deadline=None)
@given(source=kernels())
def test_legacy_matches_reference_on_random_kernels(source):
    for config in CONFIGS:
        assert_legacy_matches_reference(source, config)


# ---------------------------------------------------------------------------
# Selection: savings-driven modes never lose to greedy first-fit
# ---------------------------------------------------------------------------


def costs_by_mode(source):
    total = {}
    for mode in PLAN_SELECT_MODES:
        config = replace(VectorizerConfig.lslp(), plan_select=mode)
        _, func = build_kernel(source)
        total[mode] = compile_function(func, config).static_cost
    return total


@settings(max_examples=40, deadline=None)
@given(source=kernels())
def test_selection_never_worse_than_legacy(source):
    total = costs_by_mode(source)
    assert total["module-greedy"] <= total["legacy"], source
    assert total["module-exhaustive"] <= total["module-greedy"], source


@pytest.mark.parametrize("kernel", OVERLAP_KERNELS, ids=lambda k: k.name)
def test_selection_wins_on_overlapping_seeds(kernel):
    total = costs_by_mode(kernel.source)
    assert total["module-greedy"] < total["legacy"]
    assert total["module-exhaustive"] <= total["module-greedy"]


def test_selection_preserves_semantics():
    from repro.interp import compare_runs
    from repro.ir import verify_function

    for kernel in OVERLAP_KERNELS:
        reference = build_kernel(kernel.source)
        for mode in MODULE_SELECT_MODES:
            config = replace(VectorizerConfig.lslp(), plan_select=mode)
            module, func = build_kernel(kernel.source)
            compile_function(func, config)
            verify_function(func)
            outcome = compare_runs(
                reference, (module, func), args={"i": 8}, seed=7,
            )
            assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# Observability: every plan is visible
# ---------------------------------------------------------------------------


def test_plan_records_and_sink_cover_every_candidate():
    sink = ListSink()
    records.set_sink(sink)
    try:
        config = replace(VectorizerConfig.lslp(),
                         plan_select="module-greedy")
        _, func = build_kernel(OVERLAP_KERNELS[0].source)
        compile_function(func, config)
    finally:
        records.set_sink(None)
    plans = [r for r in sink.records if r["type"] == "plan.dump"]
    types = {r["type"] for r in sink.records}
    assert {"plan", "select", "reject"} <= types
    plan_ids = [r["plan_id"] for r in sink.records if r["type"] == "plan"]
    decided = [
        r["plan_id"] for r in sink.records
        if r["type"] in ("select", "reject")
    ]
    # every enumerated plan gets exactly one select-or-reject verdict
    assert sorted(decided) == sorted(plan_ids)
    assert plans, "plan sink captured nothing"
    assert {e["plan_id"] for e in plans} == set(plan_ids)
    outcomes = {e["outcome"] for e in plans}
    assert "applied" in outcomes
    for entry in plans:
        assert entry["mode"] == "module-greedy"
        assert "total_cost" in entry and "description" in entry


# ---------------------------------------------------------------------------
# Budgets: degradation is explicit
# ---------------------------------------------------------------------------


def test_budget_abort_leaves_explicit_remark():
    config = VectorizerConfig.lslp().with_budget(Budget(max_seconds=0.0))
    _, func = build_kernel(OVERLAP_KERNELS[0].source)
    result = compile_function(func, config)
    remarks = [
        r for r in result.remarks
        if r.category == "budget" and "left scalar" in r.message
    ]
    assert remarks, "expected a seed-abort degradation remark"
    assert result.report.num_vectorized == 0


def test_select_subset_budget_trips_event():
    config = replace(
        VectorizerConfig.lslp(), plan_select="module-exhaustive",
        budget=Budget(max_select_subsets=1),
    )
    _, func = build_kernel(OVERLAP_KERNELS[1].source)
    result = compile_function(func, config)
    remarks = [
        r for r in result.remarks
        if "plan-selection budget" in r.message
    ]
    assert remarks, "expected the select-subset budget remark"
    # the greedy incumbent still stands: never worse than legacy
    _, legacy_func = build_kernel(OVERLAP_KERNELS[1].source)
    legacy = compile_function(legacy_func, VectorizerConfig.lslp())
    assert result.static_cost <= legacy.static_cost


# ---------------------------------------------------------------------------
# Lazy descriptions: serde drops dumps for scalar-kept trees
# ---------------------------------------------------------------------------


def test_serde_skips_descriptions_of_unvectorized_trees():
    config = replace(VectorizerConfig.lslp(),
                     plan_select="module-greedy")
    _, func = build_kernel(OVERLAP_KERNELS[0].source)
    result = compile_function(func, config)
    rejected = [t for t in result.report.trees if not t.vectorized]
    accepted = [t for t in result.report.trees if t.vectorized]
    assert rejected and accepted
    for tree in rejected:
        data = tree_to_dict(tree)
        assert data["description"] == ""
        assert tree_from_dict(data).description == ""
    for tree in accepted:
        data = tree_to_dict(tree)
        assert data["description"] == tree.description
        assert data["description"]
        roundtrip = tree_from_dict(data)
        assert roundtrip.description == tree.description
