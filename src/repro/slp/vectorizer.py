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

:class:`ModuleVectorizationDriver` is the one SLP driver: it takes
each block through the three phases of :mod:`repro.slp.plan`, whatever
the mode, and a lone function is a module of one:

1. **plan** — enumerate immutable :class:`~repro.slp.plan.TreePlan`
   candidates (full width, both halves eagerly, reductions) without
   touching the IR, on an isolated analysis context and a phase-scoped
   budget meter;
2. **select** — resolve conflicts between overlapping candidates.  The
   default ``plan_select="legacy"`` selects nothing: every block keeps
   the empty selection and the applier's greedy first-fit decides,
   reproducing the historical pipeline's trees byte-for-byte;
   ``"module-greedy"``/``"module-exhaustive"`` pick the best
   non-conflicting subset by plan-time total cost over the whole
   module;
3. **apply** — materialize trees through ``VectorCodeGen`` in
   deterministic order, emitting a tree as planned while nothing has
   been emitted into its function since planning and no budget check
   could answer differently, else rebuilding and re-checking it on the
   current IR.

Afterwards every candidate's fate (applied, or rejected with a reason)
is reconciled into ``select``/``reject`` and ``plan.dump`` records.
The driver reports into the function's compile context, each exhausted
budget kind once per function.
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
from ..obs.tracing import span
from ..robustness.budget import Budget, BudgetMeter, ModuleMeter
from ..robustness.diagnostics import compiling
from .builder import BuildPolicy, BuildStats
from .lookahead import LookAheadContext, get_lookahead_score
from .plan import (
    BUDGET_REMEDIATION,
    MODULE_SELECT_MODES,
    PLAN_SELECT_MODES,
    Applier,
    BlockPlan,
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
    #: first-fit byte-for-byte; "module-greedy"/"module-exhaustive"
    #: pool every block of every function, pick the best
    #: non-conflicting candidate subset by plan-time cost and spend one
    #: shared selection budget where the projected savings are largest
    plan_select: str = "legacy"
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
        self.stats.nodes += other.stats.nodes
        self.stats.multi_nodes += other.stats.multi_nodes
        self.stats.gathers += other.stats.gathers
        self.stats.reorders += other.stats.reorders
        self.stats.lookahead_evals += other.stats.lookahead_evals


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


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass
class _PlannedBlock:
    """One block's phase-1 state, held until the apply phase."""

    block: BasicBlock
    seeds: list
    block_plan: BlockPlan
    ctx: LookAheadContext
    aa: AliasAnalysis
    #: the function's emission count when this block was planned
    epoch: int = 0
    #: the selection verdict; empty until :meth:`select` picks, and
    #: under ``legacy``
    selection: Selection = Selection()


@dataclass
class _PlannedFunction:
    """One function's report, budget meters and planned blocks."""

    report: VectorizationReport
    meter: BudgetMeter
    #: planning's phase-scoped meter: one per function, so its caps
    #: (``max_lookahead_evals``, ...) bound the whole function's
    #: planning like the apply meter's bound its apply phase
    plan_meter: BudgetMeter
    blocks: list[_PlannedBlock] = field(default_factory=list)
    #: trees and reductions emitted into the function so far: a block
    #: whose epoch still equals it was planned on the IR it is applied
    #: to, so its plans may be emitted as built
    emitted: int = 0


class ModuleVectorizationDriver:
    """The SLP driver (paper Figure 1): plan, select, apply.

    :meth:`plan_function` enumerates one function's candidates for
    every block, read-only.  :meth:`select` runs the module-wide
    selection over every function planned since the last call.
    :meth:`apply_function` materializes one function, block by block —
    callable per function, so a guarded pipeline
    (``repro.opt.pipelines``) can wrap each function's apply in its own
    pass guard.

    Every ``plan_select`` mode runs here, in one order: every function
    is planned first, then one selection runs for all of them (none
    under ``legacy``), then each function is applied.  A function
    :meth:`apply_function` meets unplanned is planned and selected on
    its own.  Plan ids come from one driver-wide counter in every mode.

    Seeds and apply-phase analysis contexts are captured at plan time.
    The applier re-checks liveness; it emits a planned tree as built
    only while nothing has been emitted into the function since the
    block was planned, and rebuilds every other tree on the current IR,
    so cross-function ordering cannot invalidate a verdict silently.
    Blocks replaced after planning (a guard rollback swaps in a
    snapshot's blocks) are planned again at apply time and applied
    first-fit, with a remark.
    """

    def __init__(self, config: VectorizerConfig,
                 target: Optional[TargetCostModel] = None,
                 module_meter: Optional[ModuleMeter] = None):
        if config.plan_select not in PLAN_SELECT_MODES:
            raise ValueError(
                f"unknown plan-select mode {config.plan_select!r}; "
                f"use one of {', '.join(PLAN_SELECT_MODES)}"
            )
        self.config = config
        self.target = target if target is not None else skylake_like()
        if (module_meter is None and config.budget is not None
                and config.budget.has_module_caps):
            module_meter = ModuleMeter(config.budget)
        self.module_meter = module_meter
        self.selector = (None if config.plan_select == "legacy"
                         else Selector(config))
        self._plan_ids = itertools.count()
        self._planned: dict[str, _PlannedFunction] = {}
        #: planned functions awaiting the module-wide selection
        self._unselected: list[_PlannedFunction] = []
        self._select_events: list = []

    # ------------------------------------------------------------------

    def plan_function(self, func: Function) -> None:
        """Phase 1 for one function: enumerate every block's candidates
        without touching the IR."""
        planned = self._start(func)
        self._planned[func.name] = planned
        if self.selector is not None:
            self._unselected.append(planned)
        with compiling(func.name, self.config.name, "slp"), \
                span("slp.module_plan", function=func.name,
                     config=self.config.name):
            for block in func.blocks:
                planned.blocks.append(self._plan_block(planned, block))

    def select(self) -> None:
        """Phase 2: one selection over every function planned since the
        last call (``legacy`` never selects: its blocks keep the empty
        selection)."""
        if self.selector is None or not self._unselected:
            return
        blocks = [(planned.report.function, pb)
                  for planned in self._unselected for pb in planned.blocks]
        self._unselected = []
        meter = BudgetMeter(self.config.budget, module=self.module_meter)
        selections = self.selector.select(
            [(name, pb.block_plan) for name, pb in blocks], meter
        )
        for (_, pb), selection in zip(blocks, selections):
            pb.selection = selection
        self._select_events.extend(meter.events)

    def apply_function(self, func: Function) -> VectorizationReport:
        """Phase 3 for one function: materialize its blocks in order."""
        with compiling(func.name, self.config.name, "slp") as context:
            if func.name not in self._planned:
                self.plan_function(func)
            self.select()
            planned = self._planned.pop(func.name)
            ahead = {id(pb.block): pb for pb in planned.blocks}
            report, meter = planned.report, planned.meter
            with span("slp.function", function=func.name,
                      config=self.config.name):
                for block in func.blocks:
                    pb = ahead.pop(id(block), None)
                    if pb is None:
                        pb = self._plan_block(planned, block)
                    applier = Applier(self.config, self.target,
                                      untouched=pb.epoch == planned.emitted)
                    applier.apply(block, pb.block_plan, pb.selection,
                                  pb.seeds, pb.ctx, pb.aa, report, meter)
                    planned.emitted += applier.emitted
                    record_outcomes(pb.block_plan, applier,
                                    self.config.plan_select,
                                    self.config.cost_threshold,
                                    pb.selection)
            for pb in ahead.values():
                record_outcomes(pb.block_plan, None, self.config.plan_select,
                                self.config.cost_threshold)
            if ahead:
                context.warning(
                    "plan",
                    "blocks changed after planning (a rollback restored "
                    "an earlier body); planned them again and applied "
                    "them first-fit",
                    phase="plan",
                    remediation="see the rollback remark for the "
                                "failing pass",
                )
            # One budget remark per exhausted kind, from the first meter
            # that saw it: apply, module selection (surfacing once, on
            # the first function applied), then planning.  The module
            # meter reports through the function meter's module* kinds.
            first: dict = {}
            for phase, events in (("budget", meter.events),
                                  ("budget", self._select_events),
                                  ("plan", planned.plan_meter.events)):
                for event in events:
                    first.setdefault(event.kind, (phase, event))
            self._select_events = []
            for phase, event in first.values():
                context.warning(
                    "budget", event.detail, phase=phase,
                    remediation=BUDGET_REMEDIATION, record="degrade",
                    kind=event.kind, detail=event.detail,
                    counters={"budget.exhaustions": 1,
                              f"budget.exhausted.{event.kind}": 1},
                )
        _publish_report_metrics(report)
        return report

    # ------------------------------------------------------------------

    def _start(self, func: Function) -> _PlannedFunction:
        meter = BudgetMeter(self.config.budget, module=self.module_meter)
        meter.start_function()
        return _PlannedFunction(
            VectorizationReport(func.name, self.config.name), meter,
            meter.phase_meter(),
        )

    def _plan_block(self, planned: _PlannedFunction,
                    block: BasicBlock) -> _PlannedBlock:
        # Apply-phase analyses are fresh per block: code generation
        # invalidates cached positions but not SCEV facts.  Seeds are
        # collected with the apply context so its caches populate as
        # the historical pipeline's did.  The planner gets its own
        # context (shared SCEV caches would leak pre-mutation facts into
        # apply-time builds) and the function's phase-scoped meter
        # (planning must not perturb apply-phase budget accounting).
        ctx = LookAheadContext(ScalarEvolution())
        aa = AliasAnalysis(ctx.scev)
        seeds = collect_store_seeds(block, ctx.scev, self.target)
        plan_ctx = LookAheadContext(ScalarEvolution())
        planner = Planner(self.config, self.target, ids=self._plan_ids,
                          function=planned.report.function)
        block_plan = planner.plan_block(
            block, seeds, plan_ctx, AliasAnalysis(plan_ctx.scev),
            planned.plan_meter,
        )
        return _PlannedBlock(block, seeds, block_plan, ctx, aa,
                             epoch=planned.emitted)


__all__ = [
    "MODULE_SELECT_MODES",
    "ModuleVectorizationDriver",
    "PLAN_SELECT_MODES",
    "TreeRecord",
    "VectorizationReport",
    "VectorizerConfig",
]
