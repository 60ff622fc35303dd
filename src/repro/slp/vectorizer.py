"""The top-level (L)SLP vectorization pass (paper Figure 1).

:class:`VectorizerConfig` captures one experimental configuration; the
paper's four appear as factory methods:

* ``VectorizerConfig.o3()`` — vectorization disabled entirely,
* ``VectorizerConfig.slp_nr()`` — SLP with operand reordering disabled,
* ``VectorizerConfig.slp()`` — vanilla SLP (opcode/consecutive-load
  reordering, no look-ahead, no multi-nodes),
* ``VectorizerConfig.lslp()`` — the paper's contribution (multi-nodes +
  look-ahead reordering), with the depth and multi-node size knobs the
  Figure 13 sensitivity study sweeps.

:class:`SLPVectorizer` drives each block through the three phases of
:mod:`repro.slp.plan`:

1. **plan** — enumerate immutable :class:`~repro.slp.plan.TreePlan`
   candidates (full width, both halves eagerly, reductions, optional
   policy variants) without touching the IR, on an isolated analysis
   context and a phase-scoped budget meter;
2. **select** — resolve conflicts between overlapping candidates.  The
   default ``plan_select="legacy"`` skips selection entirely and lets
   the applier's greedy first-fit decide, reproducing the historical
   pipeline byte-for-byte; ``"greedy-savings"``/``"exhaustive"`` pick
   the best non-conflicting subset by plan-time total cost;
3. **apply** — materialize trees through ``VectorCodeGen`` in
   deterministic order, rebuilding and re-checking each on the current
   IR.

Afterwards every candidate's fate (applied, or rejected with a reason)
is reconciled into ``select``/``reject`` records and the plan sink.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from ..analysis.aliasing import AliasAnalysis
from ..analysis.scev import ScalarEvolution
from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..obs.tracing import span
from ..robustness.budget import Budget, BudgetMeter, ModuleMeter
from ..robustness.diagnostics import Remark, Severity
from .builder import BuildPolicy, BuildStats
from .lookahead import LookAheadContext, get_lookahead_score
from .plan import (
    MODULE_SELECT_MODES,
    PLAN_SELECT_MODES,
    Applier,
    FunctionPlan,
    ModulePlan,
    ModuleSelector,
    Planner,
    Selection,
    Selector,
    TreeRecord,
    record_outcomes,
)
from .seeds import collect_store_seeds


@dataclass(frozen=True)
class VectorizerConfig:
    """One vectorizer configuration (paper §5.1)."""

    name: str = "lslp"
    #: master switch: False reproduces plain -O3 (no vectorization)
    enabled: bool = True
    #: apply operand reordering at commutative nodes
    enable_reordering: bool = True
    #: look-ahead depth (0 = vanilla SLP's heuristic)
    look_ahead_depth: int = 8
    #: maximum multi-node size in chained groups (None = unbounded,
    #: 1 = multi-nodes disabled)
    multi_node_max_size: Optional[int] = 1
    #: also vectorize reduction-tree seeds
    enable_reductions: bool = True
    #: vectorize only when the tree cost is strictly below this
    cost_threshold: int = 0
    #: look-ahead score aggregation (paper footnote 4 ablation)
    score_function: object = get_lookahead_score
    #: operand reordering strategy ("greedy" per the paper, or
    #: "exhaustive" for the backtracking ablation)
    reorder_strategy: str = "greedy"
    #: SPLAT-mode detection in the reorderer (ablation knob)
    enable_splat_detection: bool = True
    #: resource budget (look-ahead evals, reorder assignments, wall
    #: clock); ``None`` = unlimited, the historical behaviour
    budget: Optional[Budget] = None
    #: plan-selection mode: "legacy" (default) reproduces the greedy
    #: first-fit byte-for-byte; "greedy-savings"/"exhaustive" pick the
    #: best non-conflicting candidate subset by plan-time cost per
    #: block; "module-greedy"/"module-exhaustive" pool every block of
    #: every function and spend one shared selection budget where the
    #: projected savings are largest
    plan_select: str = "legacy"
    #: extra build policies ("slp-nr", "slp", "lslp") the planner
    #: enumerates per seed for comparison; informational only, never
    #: applied
    plan_policy_variants: tuple[str, ...] = ()
    #: selection-time penalty per vector register a plan needs beyond
    #: the target's register file (repro.slp.pressure); 0 disables the
    #: pressure term entirely
    reg_pressure_weight: int = 0
    #: if-conversion mode (repro.opt.ifconvert): "off" (default, keeps
    #: every historical pipeline byte-identical), "on" (flatten every
    #: legal hammock/diamond so SLP can pack across the former branch),
    #: or "cost" (flatten only when the speculated work does not exceed
    #: the branch-removal savings)
    ifconvert: str = "off"
    #: unroll-and-SLP mode (repro.opt.unroll): partially unroll loops
    #: that full unrolling refuses (symbolic bounds, trips beyond the
    #: cap) by a target-derived factor with a scalar epilogue, so SLP
    #: packs across iterations; off by default to keep every historical
    #: pipeline byte-identical
    loop_vectorize: bool = False
    #: full-unroll trip-count cap override (None = MAX_TRIP_COUNT)
    unroll_max_trip: Optional[int] = None

    # ---- the paper's configurations -----------------------------------

    @staticmethod
    def o3() -> "VectorizerConfig":
        """-O3 with all vectorizers disabled."""
        return VectorizerConfig(name="O3", enabled=False)

    @staticmethod
    def slp_nr() -> "VectorizerConfig":
        """SLP with operand reordering disabled (No Rotation)."""
        return VectorizerConfig(
            name="SLP-NR",
            enable_reordering=False,
            look_ahead_depth=0,
            multi_node_max_size=1,
        )

    @staticmethod
    def slp() -> "VectorizerConfig":
        """Vanilla SLP: opcode-based reordering, no look-ahead."""
        return VectorizerConfig(
            name="SLP",
            enable_reordering=True,
            look_ahead_depth=0,
            multi_node_max_size=1,
        )

    @staticmethod
    def lslp(look_ahead_depth: int = 8,
             multi_node_max_size: Optional[int] = None,
             name: Optional[str] = None) -> "VectorizerConfig":
        """Look-ahead SLP; knobs match the Figure 13 sensitivity study."""
        if name is None:
            name = "LSLP"
        return VectorizerConfig(
            name=name,
            enable_reordering=True,
            look_ahead_depth=look_ahead_depth,
            multi_node_max_size=multi_node_max_size,
        )

    def with_name(self, name: str) -> "VectorizerConfig":
        return replace(self, name=name)

    def with_budget(self, budget: Optional[Budget]) -> "VectorizerConfig":
        return replace(self, budget=budget)

    def with_plan_select(self, mode: str) -> "VectorizerConfig":
        return replace(self, plan_select=mode)

    def build_policy(self, meter: Optional[BudgetMeter] = None
                     ) -> BuildPolicy:
        return BuildPolicy(
            enable_reordering=self.enable_reordering,
            look_ahead_depth=self.look_ahead_depth,
            multi_node_max_size=self.multi_node_max_size,
            score_function=self.score_function,
            reorder_strategy=self.reorder_strategy,
            enable_splat_detection=self.enable_splat_detection,
            meter=meter,
        )


@dataclass
class VectorizationReport:
    """Everything the experiments need to know about one function run."""

    function: str
    config: str
    trees: list[TreeRecord] = field(default_factory=list)
    stats: BuildStats = field(default_factory=BuildStats)
    #: budget / degradation remarks emitted while vectorizing
    remarks: list[Remark] = field(default_factory=list)

    @property
    def vectorized_trees(self) -> list[TreeRecord]:
        return [t for t in self.trees if t.vectorized]

    @property
    def num_vectorized(self) -> int:
        return len(self.vectorized_trees)

    @property
    def total_cost(self) -> int:
        """Static cost of the vectorization actually performed (Figure
        10's metric: the sum over accepted trees; 0 when nothing was
        vectorized)."""
        return sum(t.cost for t in self.vectorized_trees)

    def merge(self, other: "VectorizationReport") -> None:
        self.trees.extend(other.trees)
        self.remarks.extend(other.remarks)
        self.stats.nodes += other.stats.nodes
        self.stats.multi_nodes += other.stats.multi_nodes
        self.stats.gathers += other.stats.gathers
        self.stats.reorders += other.stats.reorders
        self.stats.lookahead_evals += other.stats.lookahead_evals


class SLPVectorizer:
    """Runs one configuration over functions/modules, rewriting the IR."""

    def __init__(self, config: Optional[VectorizerConfig] = None,
                 target: Optional[TargetCostModel] = None):
        self.config = config if config is not None else VectorizerConfig.lslp()
        self.target = target if target is not None else skylake_like()
        if self.config.plan_select not in PLAN_SELECT_MODES:
            raise ValueError(
                f"unknown plan-select mode {self.config.plan_select!r}; "
                f"use one of {', '.join(PLAN_SELECT_MODES)}"
            )

    # ------------------------------------------------------------------

    def run_function(self, func: Function,
                     module_meter: Optional[ModuleMeter] = None
                     ) -> VectorizationReport:
        report = VectorizationReport(func.name, self.config.name)
        if not self.config.enabled:
            return report
        if self.config.plan_select in MODULE_SELECT_MODES:
            # A lone function is its own module: candidates from all of
            # its blocks are pooled and selected in one pass.
            driver = ModuleVectorizationDriver(self.config, self.target,
                                               module_meter)
            driver.plan_function(func)
            driver.select()
            return driver.apply_function(func)
        meter = BudgetMeter(self.config.budget, module=module_meter)
        meter.start_function()
        #: function-scope plan ids, so records stay unambiguous across
        #: blocks
        plan_ids = itertools.count()
        # Ambient record context: deep layers (builder, reorderer,
        # budget meters) emit decision records without threading names.
        context = _records.push_context(
            function=func.name, config=self.config.name,
            **{"pass": "slp"},
        )
        try:
            with span("slp.function", function=func.name,
                      config=self.config.name):
                for block in func.blocks:
                    self._run_block(block, report, meter, plan_ids)
        finally:
            _records.restore_context(context)
        for event in meter.events:
            report.remarks.append(_budget_remark(func.name, event))
        _publish_report_metrics(report)
        return report

    # ------------------------------------------------------------------

    def _run_block(self, block: BasicBlock, report: VectorizationReport,
                   meter: Optional[BudgetMeter] = None,
                   plan_ids: Optional[itertools.count] = None) -> None:
        meter = meter if meter is not None else BudgetMeter()

        # Apply-phase analyses are rebuilt per block: code generation
        # invalidates cached positions but not SCEV facts; a fresh
        # context is cheap and always sound.  Seeds are collected with
        # the *apply* context so its caches populate exactly as the
        # historical pipeline's did.
        ctx = LookAheadContext(ScalarEvolution())
        aa = AliasAnalysis(ctx.scev)
        seeds = collect_store_seeds(block, ctx.scev, self.target)

        # Phase 1 — plan.  Isolated analysis context (shared SCEV caches
        # would leak pre-mutation facts into apply-time builds) and a
        # phase-scoped meter (planning must not perturb apply-phase
        # budget accounting).
        plan_ctx = LookAheadContext(ScalarEvolution())
        plan_aa = AliasAnalysis(plan_ctx.scev)
        planner = Planner(self.config, self.target, ids=plan_ids)
        block_plan = planner.plan_block(block, seeds, plan_ctx, plan_aa,
                                        meter.phase_meter())

        # Phase 2 — select.  Legacy mode defers to the applier's greedy
        # first-fit; selection charges the function meter.
        selection: Optional[Selection] = None
        if self.config.plan_select != "legacy":
            selection = Selector(self.config).select(block_plan, meter)

        # Phase 3 — apply, then reconcile what actually happened with
        # what was planned.
        applier = Applier(self.config, self.target)
        applier.apply(block, block_plan, selection, seeds, ctx, aa,
                      report, meter)
        record_outcomes(block_plan, applier, self.config.plan_select,
                        self.config.cost_threshold, selection)


def _publish_report_metrics(report: VectorizationReport) -> None:
    """Publish one function's tallies into the metrics registry (one
    flag check when publication is off)."""
    if not _metrics.publishing():
        return
    stats = report.stats
    _metrics.add("slp.trees_built", len(report.trees))
    _metrics.add("slp.groups_vectorized", report.num_vectorized)
    _metrics.add("slp.nodes", stats.nodes)
    _metrics.add("slp.multi_nodes", stats.multi_nodes)
    _metrics.add("slp.gathers", stats.gathers)
    _metrics.add("reorder.reorders", stats.reorders)
    _metrics.add("lookahead.evals", stats.lookahead_evals)


def _budget_remark(function: str, event) -> Remark:
    return Remark(
        Severity.WARNING, "budget", event.detail,
        function=function, pass_name="slp", phase="budget",
        remediation="raise the Budget caps, or accept the "
                    "greedy/scalar degradation",
    )


# ---------------------------------------------------------------------------
# Module-scoped two-phase driver
# ---------------------------------------------------------------------------


@dataclass
class _PlannedBlock:
    """One block's phase-1 state, held until the apply phase."""

    block: BasicBlock
    seeds: list
    block_plan: object
    ctx: LookAheadContext
    aa: AliasAnalysis


@dataclass
class _PlannedFunction:
    func: Function
    report: VectorizationReport
    meter: BudgetMeter
    blocks: list[_PlannedBlock] = field(default_factory=list)


class ModuleVectorizationDriver:
    """The two-phase, module-scoped plan/select/apply flow.

    Phase 1 (:meth:`plan_function`, once per function) enumerates
    candidates for every block read-only, pooling them into one
    :class:`~repro.slp.plan.ModulePlan` with module-wide plan ids.
    Phase 2 (:meth:`select`) runs the module-scope selector over the
    pooled candidates, spending the one shared selection budget where
    projected savings are largest.  :meth:`apply_function` then
    materializes one function's share of the verdicts — callable per
    function so a guarded pipeline (``repro.opt.pipelines``) can wrap
    each function's apply in its own pass guard.

    Seeds and apply-phase analysis contexts are captured at plan time;
    the applier re-checks liveness and rebuilds every tree on the
    current IR, so cross-function ordering cannot invalidate a verdict
    silently.
    """

    def __init__(self, config: VectorizerConfig,
                 target: Optional[TargetCostModel] = None,
                 module_meter: Optional[ModuleMeter] = None):
        if config.plan_select not in MODULE_SELECT_MODES:
            raise ValueError(
                f"not a module plan-select mode {config.plan_select!r};"
                f" use one of {', '.join(MODULE_SELECT_MODES)}"
            )
        self.config = config
        self.target = target if target is not None else skylake_like()
        if (module_meter is None and config.budget is not None
                and config.budget.has_module_caps):
            module_meter = ModuleMeter(config.budget)
        self.module_meter = module_meter
        self.module_plan = ModulePlan()
        self._plan_ids = itertools.count()
        self._planned: dict[str, _PlannedFunction] = {}
        self._selections: Optional[dict] = None
        self._select_events: list = []

    # ------------------------------------------------------------------

    def plan_function(self, func: Function) -> None:
        """Phase 1 for one function: enumerate every block's candidates
        without touching the IR."""
        report = VectorizationReport(func.name, self.config.name)
        meter = BudgetMeter(self.config.budget, module=self.module_meter)
        meter.start_function()
        planned = _PlannedFunction(func, report, meter)
        fplan = FunctionPlan(func.name)
        context = _records.push_context(
            function=func.name, config=self.config.name,
            **{"pass": "slp"},
        )
        try:
            with span("slp.module_plan", function=func.name,
                      config=self.config.name):
                for block in func.blocks:
                    # Apply-phase analyses, captured now, used in phase
                    # 3; the planner gets its own isolated context, as
                    # in the per-block flow.
                    ctx = LookAheadContext(ScalarEvolution())
                    aa = AliasAnalysis(ctx.scev)
                    seeds = collect_store_seeds(block, ctx.scev,
                                                self.target)
                    plan_ctx = LookAheadContext(ScalarEvolution())
                    plan_aa = AliasAnalysis(plan_ctx.scev)
                    planner = Planner(self.config, self.target,
                                      ids=self._plan_ids,
                                      function=func.name)
                    block_plan = planner.plan_block(
                        block, seeds, plan_ctx, plan_aa,
                        meter.phase_meter(),
                    )
                    planned.blocks.append(
                        _PlannedBlock(block, seeds, block_plan, ctx, aa)
                    )
                    fplan.blocks.append(block_plan)
        finally:
            _records.restore_context(context)
        self._planned[func.name] = planned
        self.module_plan.functions.append(fplan)

    def select(self) -> None:
        """Phase 2: one module-scope selection over the pooled
        candidates (idempotent)."""
        if self._selections is not None:
            return
        select_meter = BudgetMeter(self.config.budget,
                                   module=self.module_meter)
        self._selections = ModuleSelector(self.config).select(
            self.module_plan, select_meter
        )
        self._select_events = list(select_meter.events)

    def apply_function(self, func: Function) -> VectorizationReport:
        """Phase 3 for one function: materialize its share of the
        module selection in deterministic plan order."""
        self.select()
        planned = self._planned[func.name]
        report, meter = planned.report, planned.meter
        context = _records.push_context(
            function=func.name, config=self.config.name,
            **{"pass": "slp"},
        )
        try:
            with span("slp.function", function=func.name,
                      config=self.config.name):
                for pb in planned.blocks:
                    selection = self._selections.get(
                        (func.name, pb.block.name)
                    )
                    if selection is None:
                        selection = Selection(
                            mode=self.config.plan_select, chosen=(),
                            planned_total=0, note="first-fit",
                        )
                    applier = Applier(self.config, self.target)
                    applier.apply(pb.block, pb.block_plan, selection,
                                  pb.seeds, pb.ctx, pb.aa, report,
                                  meter)
                    record_outcomes(pb.block_plan, applier,
                                    self.config.plan_select,
                                    self.config.cost_threshold,
                                    selection)
        finally:
            _records.restore_context(context)
        for event in meter.events:
            report.remarks.append(_budget_remark(func.name, event))
        # Module-scope selection events surface once, on the first
        # function whose apply phase runs.
        for event in self._select_events:
            report.remarks.append(_budget_remark(func.name, event))
        self._select_events = []
        _publish_report_metrics(report)
        return report


__all__ = [
    "MODULE_SELECT_MODES",
    "ModuleVectorizationDriver",
    "PLAN_SELECT_MODES",
    "SLPVectorizer",
    "TreeRecord",
    "VectorizationReport",
    "VectorizerConfig",
]
