"""Plan/select/apply: the SLP pipeline as explicit, inspectable phases.

The historical vectorizer was greedy and in-place: ``_try_store_tree``
built one graph per seed, costed it, and immediately mutated the IR, so
overlapping seeds, width choices and policy choices were decided
first-come-first-served.  goSLP (PAPERS.md) showed that lifting those
local decisions into a global selection problem recovers real speedups;
this module performs that inversion in three layers:

* :class:`Planner` enumerates immutable :class:`TreePlan` candidates per
  block — the full-width seed *and* both halves eagerly (recursively,
  down to VL2), plus reduction plans — without touching the IR.
* :class:`Selector` resolves conflicts between plans that claim the same
  stores/instructions and picks the subset with the best total cost.
  The default ``legacy`` mode never selects: its blocks keep the empty
  :class:`Selection`, so the applier's greedy first-fit decides every
  tree (reproducing the historical pipeline's trees byte-for-byte); the
  other modes are opt-in and budget-metered, each a strategy (greedy,
  or greedy plus a subset search) over every block of the module.
* :class:`Applier` materializes a block's selection through
  :class:`~repro.slp.codegen.VectorCodeGen` in deterministic order —
  the chosen plans, then a first-fit sweep over every seed selection
  left on the table, then the reductions.  It emits a seed's planned
  graph as built while a rebuild provably returns the same graph,
  cost, stats and verdict (nothing emitted into the function since
  planning, no budget check that could answer differently), and
  otherwise rebuilds and re-checks the tree on the current IR (an
  earlier application can invalidate a plan-time verdict).

Byte-stability contract: under the empty selection (``legacy``) the
applier's sweep re-runs the historical greedy loop *exactly* — same
seed iteration, same graphs charged to the same function meter, same
trees, same report — while the planner runs beforehand on its own
analysis context and its own phase-scoped budget meter, so planning
never perturbs the trees the legacy path produces.  A block's ``seed``
records lead its apply records, and a reused plan's ``reorder`` records
stream once, from planning, where a rebuild streams them again.

Every candidate's fate is observable: ``plan`` records at enumeration,
``select``/``reject`` records after reconciliation, ``plan.*`` metrics,
and full ``plan.dump`` records (the CLI's ``--plan-dump``) for a sink
that takes them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..analysis.aliasing import AliasAnalysis
from ..ir.basicblock import BasicBlock
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..obs.tracing import span
from ..robustness import diagnostics
from ..robustness.budget import BudgetMeter
from .builder import BuildStats, GraphBuilder
from .codegen import VectorCodeGen
from .cost import GraphCost, compute_graph_cost
from .graph import SLPGraph
from .lookahead import LookAheadContext
from .pressure import estimate_registers, register_excess
from .seeds import SeedGroup, collect_reduction_seeds

#: the selecting modes: candidates from every block of every function
#: are pooled into one selection, and one shared selection budget is
#: spent where the projected savings are largest
MODULE_SELECT_MODES: tuple[str, ...] = (
    "module-greedy", "module-exhaustive",
)

#: accepted ``VectorizerConfig.plan_select`` values
PLAN_SELECT_MODES: tuple[str, ...] = ("legacy",) + MODULE_SELECT_MODES

#: subsets the exhaustive selector may visit when no explicit
#: ``Budget.max_select_subsets`` cap is set
DEFAULT_SELECT_SUBSETS = 4096

#: the remediation every budget remark carries
BUDGET_REMEDIATION = ("raise the Budget caps, or accept the "
                      "greedy/scalar degradation")


def claimed_ids(graph: SLPGraph,
                extra: Iterable = ()) -> frozenset[int]:
    """Identity set of every scalar instruction a graph's application
    erases (vectorized lanes plus ``extra`` — a reduction's chain).
    Two plans conflict exactly when these sets intersect."""
    ids: set[int] = set()
    for node in graph.walk():
        if not node.is_gather:
            ids.update(id(inst) for inst in node.all_instructions())
    ids.update(id(inst) for inst in extra)
    return frozenset(ids)


@dataclass(frozen=True)
class TreePlan:
    """One immutable, costed vectorization candidate.

    Also the (renamed) ``ReductionPlan`` of :mod:`repro.slp.reductions`:
    reduction plans carry a nonzero ``reduction_overhead`` and claim
    their chain instructions in addition to the tree.
    """

    kind: str                     #: "store" or "reduction"
    vector_length: int
    #: the :class:`~repro.slp.seeds.SeedGroup` or
    #: :class:`~repro.slp.seeds.ReductionSeed` this plan covers
    seed: object
    graph: SLPGraph
    tree_cost: GraphCost
    #: horizontal-reduction cost delta (reduction plans only)
    reduction_overhead: int = 0
    plan_id: int = -1
    #: the function this plan's block belongs to; with ``block`` and
    #: ``plan_id`` this is the plan's stable module-wide identity
    function: str = ""
    block: str = ""
    #: plan id of the full-width plan this half descends from
    parent_id: Optional[int] = None
    schedulable: bool = False
    #: plan-time rejection reason ("", "gather-root", "unschedulable")
    reason: str = ""
    stats: BuildStats = field(default_factory=BuildStats)
    #: identity set of the scalar instructions application would erase
    claimed: frozenset = frozenset()
    #: serialized claim set: stable ``"block#index"`` keys for the
    #: claimed instructions, comparable across processes (unlike the
    #: ``id()``-based ``claimed`` set)
    claim_keys: tuple[str, ...] = ()
    #: Sethi–Ullman estimate of live vector registers at the tree's
    #: widest point (:mod:`repro.slp.pressure`)
    reg_pressure: int = 0
    #: live registers beyond the target's vector register file
    reg_excess: int = 0
    #: the plan meter's look-ahead count when this plan's build began
    evals_at_start: int = 0
    #: whether a budget check may have refused during the build: the
    #: plan meter had noted an event by its end (every refusal notes
    #: one).  Only the planner clears it.
    constrained: bool = True

    @property
    def total_cost(self) -> int:
        return self.tree_cost.total + self.reduction_overhead

    def selection_cost(self, reg_pressure_weight: int) -> int:
        """The cost the selector ranks by: the plan's total cost plus
        the register-pressure penalty (``weight * excess``)."""
        return self.total_cost + reg_pressure_weight * self.reg_excess

    def conflicts_with(self, other: "TreePlan") -> bool:
        return bool(self.claimed & other.claimed)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (the ``--plan-dump`` payload)."""
        stats = self.stats
        return {
            "plan_id": self.plan_id,
            "kind": self.kind,
            "function": self.function,
            "block": self.block,
            "vector_length": self.vector_length,
            "parent_id": self.parent_id,
            "schedulable": self.schedulable,
            "reason": self.reason,
            "total_cost": self.total_cost,
            "reduction_overhead": self.reduction_overhead,
            "reg_pressure": self.reg_pressure,
            "reg_excess": self.reg_excess,
            "claimed": list(self.claim_keys),
            "cost": self.tree_cost.to_dict(),
            "stats": {
                "nodes": stats.nodes,
                "multi_nodes": stats.multi_nodes,
                "gathers": stats.gathers,
                "reorders": stats.reorders,
                "lookahead_evals": stats.lookahead_evals,
            },
            "description": self.graph.dump(),
        }


class TreeRecord:
    """Outcome of considering one seed group.

    ``description`` renders lazily from the captured graph on first
    access: most recorded trees — gather-root rejects above all — are
    never inspected, and eagerly dumping every graph made batch-service
    reports carry dead weight.  Laziness is safe because
    :meth:`SLPGraph.dump` names values by ``name`` or identity and
    canonicalizes handles per-string, so the text is identical whenever
    it is rendered.
    """

    __slots__ = ("kind", "vector_length", "cost", "vectorized",
                 "schedulable", "_description", "_graph")

    def __init__(self, kind: str, vector_length: int, cost: int,
                 vectorized: bool, schedulable: bool,
                 description: Optional[str] = None,
                 graph: Optional[SLPGraph] = None):
        self.kind = kind
        self.vector_length = vector_length
        self.cost = cost
        self.vectorized = vectorized
        self.schedulable = schedulable
        self._description = description
        self._graph = None if description is not None else graph

    @property
    def description(self) -> str:
        if self._description is None:
            graph, self._graph = self._graph, None
            self._description = graph.dump() if graph is not None else ""
        return self._description

    def _key(self):
        return (self.kind, self.vector_length, self.cost, self.vectorized,
                self.schedulable, self.description)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeRecord):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TreeRecord(kind={self.kind!r}, "
                f"vector_length={self.vector_length}, cost={self.cost}, "
                f"vectorized={self.vectorized}, "
                f"schedulable={self.schedulable})")


@dataclass
class BlockPlan:
    """Every candidate the planner enumerated for one block."""

    block: str
    #: plan id → plan, in enumeration (pre-)order
    plans: dict[int, TreePlan] = field(default_factory=dict)
    #: plan ids of the top-level (full-width) store plans
    roots: list[int] = field(default_factory=list)
    #: plan ids of the reduction plans
    reductions: list[int] = field(default_factory=list)
    #: full-width plan id → (left-half id, right-half id)
    children: dict[int, tuple[int, int]] = field(default_factory=dict)

    def add(self, plan: TreePlan) -> None:
        self.plans[plan.plan_id] = plan


@dataclass(frozen=True)
class Selection:
    """The selector's verdict for one block; the empty selection leaves
    every tree to the applier's first-fit sweep."""

    #: chosen plan ids in ascending (deterministic apply) order
    chosen: tuple[int, ...] = ()
    #: plan ids that were acceptable on raw cost but rejected once the
    #: register-pressure penalty was applied; the applier's sweep must
    #: not resurrect them
    pressure_rejected: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class Planner:
    """Enumerates :class:`TreePlan` candidates without touching the IR.

    Runs on its own :class:`LookAheadContext`/:class:`AliasAnalysis`
    (never the applier's — shared SCEV caches would let pre-mutation
    facts leak into apply-time graph builds) and charges a phase-scoped
    budget meter, so planning perturbs neither the legacy byte-stream
    nor the apply phase's budget accounting.  Each plan notes that
    meter's look-ahead count when its build began and whether a budget
    check may have refused during it, which is what the applier needs
    to emit the plan as built.
    """

    def __init__(self, config, target, ids: Optional[itertools.count] = None,
                 function: str = ""):
        self.config = config
        self.target = target
        self.ids = ids if ids is not None else itertools.count()
        self.function = function
        self._positions: dict[int, int] = {}

    def plan_block(self, block: BasicBlock, seeds: list[SeedGroup],
                   ctx: LookAheadContext, aa: AliasAnalysis,
                   meter: BudgetMeter) -> BlockPlan:
        block_plan = BlockPlan(block=block.name)
        # Stable per-block instruction positions: the serialized claim
        # keys ("block#index") survive process boundaries, unlike the
        # id()-based conflict sets.
        self._positions = {
            id(inst): index for index, inst in enumerate(block)
        }
        with span("slp.plan", block=block.name):
            for seed in seeds:
                if not seed.alive():
                    continue
                if meter.time_exceeded():
                    break
                root_id = self._plan_store_family(
                    block_plan, block, seed, ctx, aa, meter, parent=None
                )
                block_plan.roots.append(root_id)
            if self.config.enable_reductions:
                for seed in collect_reduction_seeds(block):
                    if not seed.alive():
                        continue
                    if meter.time_exceeded():
                        break
                    self._plan_reduction(block_plan, block, seed, ctx, aa,
                                         meter)
        _metrics.add("plan.candidates", len(block_plan.plans))
        return block_plan

    # ------------------------------------------------------------------

    def _plan_store_family(self, block_plan: BlockPlan, block: BasicBlock,
                           seed: SeedGroup, ctx: LookAheadContext,
                           aa: AliasAnalysis, meter: BudgetMeter,
                           parent: Optional[int]) -> int:
        """Plan ``seed`` at full width and, eagerly, both halves — not
        only on rejection, unlike the legacy width descent — so the
        selector can weigh half-plans against an accepted full plan."""
        plan = self._plan_store(block_plan, block, seed, ctx, aa, meter,
                                parent=parent)
        if seed.vector_length >= 4 and not meter.time_exceeded():
            half = seed.vector_length // 2
            left = self._plan_store_family(
                block_plan, block, SeedGroup(seed.stores[:half]),
                ctx, aa, meter, parent=plan.plan_id,
            )
            right = self._plan_store_family(
                block_plan, block, SeedGroup(seed.stores[half:]),
                ctx, aa, meter, parent=plan.plan_id,
            )
            block_plan.children[plan.plan_id] = (left, right)
        return plan.plan_id

    def _plan_store(self, block_plan: BlockPlan, block: BasicBlock,
                    seed: SeedGroup, ctx: LookAheadContext,
                    aa: AliasAnalysis, meter: BudgetMeter,
                    parent: Optional[int]) -> TreePlan:
        evals_at_start = meter.lookahead_evals
        builder = GraphBuilder(self.config.build_policy(meter), self.target,
                               ctx)
        with span("slp.plan_graph", vl=seed.vector_length):
            graph = builder.build(seed.stores)
        cost = compute_graph_cost(graph, self.target)
        if graph.root is None or graph.root.is_gather:
            schedulable, reason = False, "gather-root"
        else:
            check = VectorCodeGen(graph, aa).analyze()
            schedulable, reason = check.ok, check.reason
        claimed = claimed_ids(graph)
        pressure, excess = self._pressure(graph)
        plan = TreePlan(
            kind="store",
            vector_length=seed.vector_length,
            seed=seed,
            graph=graph,
            tree_cost=cost,
            plan_id=next(self.ids),
            function=self.function,
            block=block.name,
            parent_id=parent,
            schedulable=schedulable,
            reason=reason,
            stats=builder.stats,
            claimed=claimed,
            claim_keys=self._claim_keys(block.name, claimed),
            reg_pressure=pressure,
            reg_excess=excess,
            evals_at_start=evals_at_start,
            constrained=meter.exhausted,
        )
        block_plan.add(plan)
        _emit_plan_record(plan)
        return plan

    def _plan_reduction(self, block_plan: BlockPlan, block: BasicBlock,
                        seed, ctx: LookAheadContext, aa: AliasAnalysis,
                        meter: BudgetMeter) -> None:
        # Deferred import: reductions.py builds on TreePlan from here.
        from .reductions import plan_reduction

        evals_at_start = meter.lookahead_evals
        with span("slp.plan_graph", kind="reduction"):
            plan = plan_reduction(seed, self.config.build_policy(meter),
                                  self.target, ctx)
        if plan is None:
            return
        codegen = VectorCodeGen(plan.graph, aa,
                                extra_claimed=tuple(seed.chain))
        schedulable = codegen.can_schedule()
        pressure, excess = self._pressure(plan.graph)
        plan = replace(
            plan,
            plan_id=next(self.ids),
            function=self.function,
            block=block.name,
            schedulable=schedulable,
            reason="" if schedulable else "unschedulable",
            claim_keys=self._claim_keys(block.name, plan.claimed),
            reg_pressure=pressure,
            reg_excess=excess,
            evals_at_start=evals_at_start,
            constrained=meter.exhausted,
        )
        block_plan.add(plan)
        block_plan.reductions.append(plan.plan_id)
        _emit_plan_record(plan)

    def _claim_keys(self, block_name: str,
                    claimed: frozenset) -> tuple[str, ...]:
        """Serialized, cross-process-stable claim set for a plan."""
        positions = self._positions
        return tuple(sorted(
            f"{block_name}#{positions[key]}"
            for key in claimed if key in positions
        ))

    def _pressure(self, graph: SLPGraph) -> tuple[int, int]:
        pressure = estimate_registers(graph)
        excess = register_excess(pressure,
                                 self.target.desc.vector_registers)
        if excess > 0:
            _metrics.add("pressure.over_subscribed")
            _metrics.add("pressure.excess_registers", excess)
        return pressure, excess


def _emit_plan_record(plan: TreePlan) -> None:
    if not _records.wants("plan"):
        return
    _records.emit(
        "plan",
        plan_id=plan.plan_id,
        kind=plan.kind,
        block=plan.block,
        vector_length=plan.vector_length,
        cost=plan.total_cost,
        schedulable=plan.schedulable,
        parent_id=plan.parent_id,
        reason=plan.reason,
    )


# ---------------------------------------------------------------------------
# Selector
# ---------------------------------------------------------------------------


class Selector:
    """Picks a non-conflicting subset of candidates for every block of
    the module.

    ``legacy`` has no selector: its blocks keep the empty
    :class:`Selection`, and the applier's greedy first-fit decides.
    ``module-greedy`` and ``module-exhaustive`` pool every block of every
    function; the latter adds a subset search to the greedy pass.

    :meth:`select` takes the group of ``(function, block_plan)`` pairs.
    The greedy pass takes the group's eligible store plans in one
    best-savings-first order, each charging one unit of the selection
    budget, so a tight shared ``Budget.max_select_subsets`` is spent on
    the highest projected savings anywhere in the module (goSLP's global
    packing).  When the budget runs dry mid-greedy, the partial picks
    stand.  The subset search then refines one block at a time, most
    promising first, charged to the same meter; it skips blocks with no
    eligible plan and stops once the budget is gone.  Reductions stay
    with the applier's loop, because their seeds are collected on
    post-store IR.

    Per block, a pick replaces the legacy-shaped first-fit subset only
    when its total is *strictly* better.
    """

    def __init__(self, config):
        self.mode = config.plan_select
        self.exhaustive = self.mode == "module-exhaustive"
        self.threshold = config.cost_threshold
        self.weight = config.reg_pressure_weight

    def select(self, group: list[tuple[str, BlockPlan]], meter: BudgetMeter
               ) -> list[Selection]:
        """One verdict per block, in group order."""
        with span("slp.select", mode=self.mode, blocks=len(group)):
            return self._select(group, meter)

    # ------------------------------------------------------------------

    def _acceptable(self, plan: TreePlan) -> bool:
        return plan.schedulable and plan.total_cost < self.threshold

    def _cost(self, plan: TreePlan) -> int:
        return plan.selection_cost(self.weight)

    def _select(self, group: list[tuple[str, BlockPlan]],
                meter: BudgetMeter) -> list[Selection]:
        entries: list[_Entry] = []
        for _, block_plan in group:
            candidates = [
                plan for _, plan in sorted(block_plan.plans.items())
                if plan.kind == "store" and self._acceptable(plan)
            ]
            eligible, pressure_rejected = split_by_pressure(
                candidates, self.weight, self.threshold
            )
            entries.append(_Entry(
                eligible, pressure_rejected,
                first_fit_subset(block_plan, self._acceptable),
            ))

        # One pool, best projected savings first; plan ids are unique
        # within a group, so the tie-break is stable.
        pool = [(entry, plan) for entry in entries
                for plan in entry.eligible]
        pool.sort(key=lambda item: (self._cost(item[1]),
                                    item[1].plan_id))
        budget_dry = False
        for entry, plan in pool:
            meter.charge_select()
            if not meter.select_allowed():
                budget_dry = True
                break
            if entry.claimed & plan.claimed:
                continue
            entry.picks.append(plan)
            entry.claimed = entry.claimed | plan.claimed

        if self.exhaustive and not budget_dry:
            budget_dry = self._refine(entries, meter)

        selections = [self._verdict(entry) for entry in entries]
        selected = sum(len(s.chosen) for s in selections)
        functions = len({function for function, _ in group})
        _metrics.add("plan.module.functions", functions)
        _metrics.add("plan.module.blocks", len(entries))
        _metrics.add("plan.module.candidates", len(pool))
        _metrics.add("plan.module.selected", selected)
        if budget_dry:
            _metrics.add("plan.module.budget_stopped")
        _records.emit(
            "module_select", mode=self.mode, functions=functions,
            blocks=len(entries), candidates=len(pool),
            selected=selected, budget_exhausted=budget_dry,
        )
        return selections

    def _refine(self, entries: list[_Entry], meter: BudgetMeter) -> bool:
        """The subset search on top of the greedy picks, most promising
        block first, under one visit cap; True when the budget stopped
        it."""
        limit_state = _default_limit_state(meter)
        order = sorted(
            range(len(entries)),
            key=lambda i: (sum(self._cost(p) for p in entries[i].picks),
                           i),
        )
        for index in order:
            entry = entries[index]
            if not entry.eligible:
                continue
            if not meter.select_allowed():
                return True
            entry.picks = exhaustive_subsets(
                entry.eligible, meter, entry.picks, self._cost,
                limit_state,
            )
        return False

    def _verdict(self, entry: "_Entry") -> Selection:
        """The block's pick, unless the first-fit shape is at least as
        good."""
        chosen = entry.first_fit
        if (sum(self._cost(plan) for plan in entry.picks)
                < sum(self._cost(plan) for plan in entry.first_fit)):
            chosen = entry.picks
        chosen_ids = tuple(sorted(plan.plan_id for plan in chosen))
        # A plan that still ended up chosen (the first-fit fallback is
        # pressure-blind by design) must not be blocked at apply time.
        pressure_rejected = tuple(
            pid for pid in entry.pressure_rejected
            if pid not in chosen_ids
        )
        return Selection(chosen=chosen_ids,
                         pressure_rejected=pressure_rejected)


class _Entry:
    """One block's selection state inside :class:`Selector`."""

    __slots__ = ("eligible", "pressure_rejected", "first_fit", "picks",
                 "claimed")

    def __init__(self, eligible: list[TreePlan],
                 pressure_rejected: tuple[int, ...],
                 first_fit: list[TreePlan]):
        self.eligible = eligible
        self.pressure_rejected = pressure_rejected
        self.first_fit = first_fit
        #: the strategy's picks
        self.picks: list[TreePlan] = []
        self.claimed: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# Selection primitives
# ---------------------------------------------------------------------------


def first_fit_subset(block_plan: BlockPlan, acceptable) -> list[TreePlan]:
    """Simulate the legacy width descent on plan-time verdicts: take
    the full width when acceptable, else recurse into halves."""
    picked: list[TreePlan] = []

    def visit(plan_id: int) -> None:
        plan = block_plan.plans[plan_id]
        if acceptable(plan):
            picked.append(plan)
            return
        kids = block_plan.children.get(plan_id)
        if kids is not None:
            visit(kids[0])
            visit(kids[1])

    for root in block_plan.roots:
        visit(root)
    return picked


def split_by_pressure(candidates: list[TreePlan], weight: int,
                      threshold: int
                      ) -> tuple[list[TreePlan], tuple[int, ...]]:
    """Partition raw-acceptable candidates into those still worth
    applying under the register-pressure penalty and the plan ids the
    penalty pushed over the cost threshold."""
    if weight == 0:
        return candidates, ()
    eligible: list[TreePlan] = []
    rejected: list[int] = []
    for plan in candidates:
        if plan.selection_cost(weight) < threshold:
            eligible.append(plan)
        else:
            rejected.append(plan.plan_id)
    if rejected:
        _metrics.add("pressure.rejected", len(rejected))
    return eligible, tuple(rejected)


def _default_limit_state(meter: BudgetMeter) -> dict:
    """Mutable visit-count state for :func:`exhaustive_subsets`, shared
    by every block of one selection; the built-in cap applies only when
    no explicit budget cap is set."""
    limit = (DEFAULT_SELECT_SUBSETS
             if meter.budget.max_select_subsets is None else None)
    return {"visited": 0, "limit": limit}


def exhaustive_subsets(candidates: list[TreePlan], meter: BudgetMeter,
                       incumbent: list[TreePlan], cost,
                       limit_state: dict) -> list[TreePlan]:
    """Branch-and-enumerate every non-conflicting subset, seeded with
    the greedy incumbent; budget-metered so adversarial conflict sets
    degrade to the greedy answer."""
    best = list(incumbent)
    best_total = sum(cost(plan) for plan in best)
    limit = limit_state["limit"]
    stopped = False

    def dfs(index: int, chosen: list[TreePlan],
            claimed: frozenset[int], total: int) -> None:
        nonlocal best, best_total, stopped
        if stopped:
            return
        limit_state["visited"] += 1
        meter.charge_select()
        if ((limit is not None and limit_state["visited"] > limit)
                or not meter.select_allowed()):
            stopped = True
            return
        if total < best_total:
            best, best_total = list(chosen), total
        for i in range(index, len(candidates)):
            plan = candidates[i]
            if claimed & plan.claimed:
                continue
            chosen.append(plan)
            dfs(i + 1, chosen, claimed | plan.claimed,
                total + cost(plan))
            chosen.pop()
            if stopped:
                return

    dfs(0, [], frozenset(), 0)
    return best


# ---------------------------------------------------------------------------
# Applier
# ---------------------------------------------------------------------------


class Applier:
    """Materializes one block's :class:`Selection`: the chosen plans,
    then a first-fit sweep over every seed selection left on the table,
    then the reductions.  Under the empty selection (``legacy``) the
    sweep *is* the historical greedy pipeline, instruction for
    instruction.

    A seed about to be tried takes its plan — the chosen one, else the
    block plan's plan over the same stores (or the same reduction) — and
    emits that plan's graph, cost, stats and schedulability verdict as
    built, charging the function meter the plan's look-ahead evals,
    whenever a rebuild provably returns exactly the same (see
    :func:`_reusable`).  Every other tree is rebuilt on the current IR,
    because an earlier application can invalidate lanes, change gather
    contents, or shift costs; the rebuild uses the applier's own
    analysis context and charges the function meter, which is exactly
    what the legacy pipeline did.

    ``untouched`` says that nothing has been emitted into the function
    since this block was planned; the first emission here ends reuse.
    """

    def __init__(self, config, target, untouched: bool = False):
        self.config = config
        self.target = target
        self.untouched = untouched
        #: store-identity sets of every applied store tree
        self.applied_stores: list[frozenset[int]] = []
        #: (reduction root id, vector length) of every applied reduction
        self.applied_reductions: list[tuple[int, int]] = []

    def apply(self, block: BasicBlock, block_plan: BlockPlan,
              selection: Selection, seeds: list[SeedGroup],
              ctx: LookAheadContext, aa: AliasAnalysis, report,
              meter: BudgetMeter) -> None:
        self._ctx = ctx
        self._aa = aa
        self._report = report
        self._meter = meter
        # Store sets whose plans selection rejected on register
        # pressure: the (pressure-blind) sweep must not resurrect them.
        self._blocked: frozenset[frozenset[int]] = frozenset(
            frozenset(id(store)
                      for store in block_plan.plans[pid].seed.stores)
            for pid in selection.pressure_rejected
            if block_plan.plans[pid].kind == "store"
        )
        self._plans = (
            {_plan_key(plan.kind, plan.seed): plan
             for plan in block_plan.plans.values()}
            if self.untouched else {}
        )
        for seed in seeds:
            if not seed.alive():
                continue
            _metrics.add("slp.seeds")
            _records.emit("seed", kind="store", block=block.name,
                          vector_length=seed.vector_length)
        for plan_id in selection.chosen:
            plan = block_plan.plans[plan_id]
            if self._meter.time_exceeded():
                self._abort_remark(block, seeds)
                return
            if not plan.seed.alive():
                continue
            record = self._try_store_tree(plan.seed)
            if record.vectorized:
                self._report.trees.append(record)
            # On apply-time divergence the record is dropped: the sweep
            # below re-attempts the family first-fit and produces the
            # canonical records for whatever it decides.
        for index, seed in enumerate(seeds):
            if self._meter.time_exceeded():
                self._abort_remark(block, seeds[index:])
                return
            self._sweep(seed)
        self._apply_reductions(block)

    @property
    def emitted(self) -> int:
        """Trees and reductions this applier emitted."""
        return len(self.applied_stores) + len(self.applied_reductions)

    # ---- plan reuse --------------------------------------------------

    def _planned(self, kind: str, seed) -> Optional[TreePlan]:
        """The seed's plan when emitting it as built is exact, with its
        look-ahead evals charged to the function meter; else ``None``
        (rebuild)."""
        if self.emitted:
            return None
        plan = self._plans.get(_plan_key(kind, seed))
        if plan is None or not _reusable(plan, self._meter):
            return None
        self._meter.charge_lookahead(plan.stats.lookahead_evals)
        return plan

    # ---- first-fit (byte-for-byte historical behaviour) --------------

    def _sweep(self, seed: SeedGroup) -> None:
        """First-fit over everything selection left on the table: a
        still-alive family gets the legacy width descent; a partially
        applied family descends to its still-alive halves."""
        if seed.alive():
            self._vectorize_seed(seed)
            return
        if seed.vector_length < 4:
            return
        half = seed.vector_length // 2
        for part in (SeedGroup(seed.stores[:half]),
                     SeedGroup(seed.stores[half:])):
            self._sweep(part)

    def _apply_reductions(self, block: BasicBlock) -> None:
        """The historical reduction loop: seeds are collected on the
        *post-store* IR in every mode, because store vectorization both
        consumes and exposes reduction chains."""
        if not self.config.enable_reductions:
            return
        remaining = collect_reduction_seeds(block)
        for index, seed in enumerate(remaining):
            if not seed.alive():
                continue
            if self._meter.time_exceeded():
                self._abort_remark(block, [],
                                   reductions=remaining[index:])
                return
            _metrics.add("slp.seeds")
            _records.emit("seed", kind="reduction", block=block.name,
                          vector_length=len(seed.operands))
            record = self._try_reduction(seed)
            if record is not None:
                self._report.trees.append(record)

    def _vectorize_seed(self, seed: SeedGroup) -> None:
        """Try a seed group at full width; on rejection, retry each half
        (LLVM's SLP does the same width descent)."""
        if (self._blocked
                and frozenset(id(s) for s in seed.stores)
                in self._blocked):
            vectorized = False  # pressure-rejected at selection time
        else:
            record = self._try_store_tree(seed)
            self._report.trees.append(record)
            vectorized = record.vectorized
        if vectorized or seed.vector_length < 4:
            return
        half = seed.vector_length // 2
        for part in (SeedGroup(seed.stores[:half]),
                     SeedGroup(seed.stores[half:])):
            if part.alive():
                self._vectorize_seed(part)

    def _try_store_tree(self, seed: SeedGroup) -> TreeRecord:
        plan = self._planned("store", seed)
        if plan is not None:
            graph, cost, stats = plan.graph, plan.tree_cost, plan.stats
        else:
            builder = GraphBuilder(self.config.build_policy(self._meter),
                                   self.target, self._ctx)
            with span("slp.build_graph", vl=seed.vector_length):
                graph = builder.build(seed.stores)
            with span("slp.cost"):
                cost = compute_graph_cost(graph, self.target)
            stats = builder.stats
        _absorb_stats(self._report.stats, stats)
        if _records.wants("slp.graph"):
            _records.emit("slp.graph", kind="store", dot=graph.to_dot())
        record = TreeRecord(
            kind="store",
            vector_length=seed.vector_length,
            cost=cost.total,
            vectorized=False,
            schedulable=False,
            graph=graph,
        )
        if graph.root is None or graph.root.is_gather:
            _emit_group(record, reason="gather-root")
            return record
        codegen = VectorCodeGen(graph, self._aa)
        record.schedulable = (plan.schedulable if plan is not None
                              else codegen.can_schedule())
        if record.schedulable and cost.total < self.config.cost_threshold:
            with span("slp.codegen", vl=seed.vector_length):
                codegen.run()
            record.vectorized = True
            self.applied_stores.append(
                frozenset(id(store) for store in seed.stores)
            )
        _emit_group(record)
        return record

    def _try_reduction(self, seed) -> Optional[TreeRecord]:
        from .reductions import emit_reduction, plan_reduction

        plan = self._planned("reduction", seed)
        if plan is None:
            with span("slp.build_graph", kind="reduction"):
                plan = plan_reduction(
                    seed, self.config.build_policy(self._meter),
                    self.target, self._ctx,
                )
            if plan is None:
                return None
        if _records.wants("slp.graph"):
            _records.emit("slp.graph", kind="reduction",
                          dot=plan.graph.to_dot())
        record = TreeRecord(
            kind="reduction",
            vector_length=plan.vector_length,
            cost=plan.total_cost,
            vectorized=False,
            schedulable=True,
            graph=plan.graph,
        )
        if plan.total_cost < self.config.cost_threshold:
            with span("slp.codegen", vl=plan.vector_length):
                record.vectorized = emit_reduction(plan, self._aa)
            if not record.vectorized:
                record.schedulable = False
            else:
                self.applied_reductions.append(
                    (id(seed.root), plan.vector_length)
                )
        _emit_group(record)
        return record

    # ---- budget-degrade reporting ------------------------------------

    def _abort_remark(self, block: BasicBlock,
                      remaining: list[SeedGroup],
                      reductions: Optional[list] = None) -> None:
        """The seed loop aborted on ``time_exceeded`` mid-list: say so
        explicitly (function/pass context included) instead of leaving
        the skipped seeds silently scalar."""
        stores_left = sum(1 for seed in remaining if seed.alive())
        if reductions is not None:
            reductions_left = sum(1 for s in reductions if s.alive())
        elif self.config.enable_reductions:
            reductions_left = sum(
                1 for s in collect_reduction_seeds(block) if s.alive()
            )
        else:
            reductions_left = 0
        total = stores_left + reductions_left
        if total == 0:
            return
        parts = []
        if stores_left:
            parts.append(f"{stores_left} store seed group(s)")
        if reductions_left:
            parts.append(f"{reductions_left} reduction seed(s)")
        detail = (
            f"compile-time budget exhausted in block {block.name!r}: "
            + " and ".join(parts) + " left scalar"
        )
        diagnostics.current().warning(
            "budget", detail, phase="budget", remediation=BUDGET_REMEDIATION,
            record="degrade", kind="seed-abort", detail=detail,
            block=block.name,
            counters={"budget.exhausted.seed-abort": 1,
                      "budget.seeds_left_scalar": total},
        )


# ---------------------------------------------------------------------------
# Outcome reconciliation
# ---------------------------------------------------------------------------


def record_outcomes(block_plan: BlockPlan, applier: Optional[Applier],
                    mode: str, cost_threshold: int,
                    selection: Selection = Selection()) -> None:
    """Classify every enumerated plan against what the applier actually
    did, stream ``select``/``reject`` records, bump ``plan.*`` metrics,
    and stream ``plan.dump`` records (``--plan-dump``).  Without an
    applier the block was replaced after planning (a guard rollback
    swapped in a snapshot's body), and every plan is rejected as
    ``stale``."""
    verdicts = _records.wants("select") or _records.wants("reject")
    dump = _records.wants("plan.dump")
    pressure_rejected = frozenset(selection.pressure_rejected)
    applied = 0
    for plan_id, plan in block_plan.plans.items():
        if applier is None:
            outcome, reason = "rejected", "stale"
        else:
            outcome, reason = _classify(plan, applier, cost_threshold)
        if outcome != "applied" and plan_id in pressure_rejected:
            reason = "reg-pressure"
        if outcome == "applied":
            applied += 1
        if verdicts:
            if outcome == "applied":
                _records.emit(
                    "select", plan_id=plan_id, mode=mode,
                    kind=plan.kind, vector_length=plan.vector_length,
                    cost=plan.total_cost, block=block_plan.block,
                )
            else:
                _records.emit(
                    "reject", plan_id=plan_id, mode=mode, reason=reason,
                    kind=plan.kind, vector_length=plan.vector_length,
                    cost=plan.total_cost, block=block_plan.block,
                )
        if dump:
            entry = plan.to_dict()
            entry["outcome"] = outcome
            entry["reason"] = reason or entry["reason"]
            entry["mode"] = mode
            _records.emit("plan.dump", **entry)
    _metrics.add("plan.selected", applied)
    _metrics.add("plan.rejected", len(block_plan.plans) - applied)


def _classify(plan: TreePlan, applier: Applier,
              cost_threshold: int) -> tuple[str, str]:
    if plan.kind == "reduction":
        key = (id(plan.seed.root), plan.vector_length)
        if key in applier.applied_reductions:
            return "applied", ""
        if not plan.schedulable:
            return "rejected", plan.reason or "unschedulable"
        if plan.total_cost >= cost_threshold:
            return "rejected", "cost"
        return "rejected", "stale"
    key = frozenset(id(store) for store in plan.seed.stores)
    if key in applier.applied_stores:
        return "applied", ""
    if not plan.schedulable:
        return "rejected", plan.reason or "unschedulable"
    if plan.total_cost >= cost_threshold:
        return "rejected", "cost"
    for applied in applier.applied_stores:
        if key < applied:
            return "rejected", "covered"
    for applied in applier.applied_stores:
        if key & applied:
            return "rejected", "conflict"
    return "rejected", "not-selected"


# ---------------------------------------------------------------------------
# Shared helpers (the historical vectorizer's, relocated)
# ---------------------------------------------------------------------------


def _reusable(plan: TreePlan, meter: BudgetMeter) -> bool:
    """Would every budget check of a rebuild of ``plan`` charged to
    ``meter`` pass, as each check of the plan's own build did?

    Each check is monotone in the meter's look-ahead count, so each
    passes again while the function meter has noted nothing and counts
    no more evals than the plan meter did when the build began, the
    module meter stays below its cap after the charge, and time is not
    up.
    """
    if (plan.constrained or meter.exhausted
            or meter.lookahead_evals > plan.evals_at_start):
        return False
    module = meter.module
    if module is not None:
        cap = module.budget.max_module_lookahead_evals
        if (cap is not None and module.lookahead_evals
                + plan.stats.lookahead_evals >= cap):
            return False
    return not meter.time_exceeded()


def _plan_key(kind: str, seed) -> tuple:
    """A seed's identity: its stores in lane order, or its reduction
    root and operands."""
    if kind == "store":
        return (kind,) + tuple(id(store) for store in seed.stores)
    return (kind, id(seed.root)) + tuple(id(op) for op in seed.operands)


def _emit_group(record: TreeRecord, reason: str = "") -> None:
    """Stream one group-formation decision (the ``-Rpass``-style record
    figure analyses key off): kind, width, the cost *delta* versus
    scalar (negative = profitable), and the verdict."""
    if not _records.wants("group"):
        return
    if not reason:
        if record.vectorized:
            reason = "profitable"
        elif not record.schedulable:
            reason = "unschedulable"
        else:
            reason = "cost"
    _records.emit(
        "group",
        kind=record.kind,
        vector_length=record.vector_length,
        cost=record.cost,
        vectorized=record.vectorized,
        schedulable=record.schedulable,
        reason=reason,
    )


def _absorb_stats(into: BuildStats, stats: BuildStats) -> None:
    into.nodes += stats.nodes
    into.multi_nodes += stats.multi_nodes
    into.gathers += stats.gathers
    into.reorders += stats.reorders
    into.lookahead_evals += stats.lookahead_evals


__all__ = [
    "Applier",
    "BlockPlan",
    "claimed_ids",
    "DEFAULT_SELECT_SUBSETS",
    "MODULE_SELECT_MODES",
    "PLAN_SELECT_MODES",
    "Planner",
    "record_outcomes",
    "Selection",
    "Selector",
    "TreePlan",
    "TreeRecord",
]
