"""SLP graph construction (paper §2.3 Listing 3 and §4.2 Listing 4).

:class:`GraphBuilder` implements ``build_graph()``.  Starting from a seed
group (consecutive stores), it walks use-def chains bottom-up, forming
vectorizable group nodes, LSLP multi-nodes over chains of same-opcode
commutative instructions, and gather nodes where vectorization stops.

The builder is shared by every configuration; :class:`BuildPolicy`
captures what differs between them (whether operands are reordered, the
look-ahead depth, and the maximum multi-node size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.schedule import bundle_is_schedulable, same_block
from ..costmodel.tti import TargetCostModel
from ..ir.instructions import (
    BinaryOperator,
    Cmp,
    Instruction,
    Load,
    Select,
    Store,
    UnaryOperator,
)
from ..ir.types import vector_of
from ..ir.values import Value
from ..obs import records as _records
from ..robustness.budget import BudgetMeter
from .graph import GatherNode, MultiNode, SLPGraph, SLPNode, VectorizableNode
from .lookahead import LookAheadContext, get_lookahead_score
from .reorder import OperandReorderer, ReorderResult


@dataclass
class BuildPolicy:
    """What a vectorizer configuration lets the graph builder do."""

    #: apply operand reordering at commutative (multi-)nodes at all?
    enable_reordering: bool = True
    #: look-ahead depth for tie-breaking (0 reproduces vanilla SLP)
    look_ahead_depth: int = 8
    #: maximum number of chained commutative groups fused into one
    #: multi-node; ``None`` means unbounded, ``1`` disables coarsening
    multi_node_max_size: Optional[int] = None
    #: look-ahead score aggregation (sum per the paper; max for ablation)
    score_function: object = get_lookahead_score
    #: "greedy" (the paper's single pass) or "exhaustive" (backtracking
    #: upper bound, for the ablation study)
    reorder_strategy: str = "greedy"
    #: SPLAT-mode detection (Listing 5 line 23); off for the ablation
    enable_splat_detection: bool = True
    #: per-function budget meter (look-ahead evals, reorder assignments,
    #: wall clock); ``None`` = unmetered
    meter: Optional[BudgetMeter] = None


@dataclass
class BuildStats:
    """Counters for compile-time analysis (Figure 14)."""

    nodes: int = 0
    multi_nodes: int = 0
    gathers: int = 0
    reorders: int = 0
    lookahead_evals: int = 0


class GraphBuilder:
    """Builds one SLP graph from one seed group."""

    def __init__(self, policy: BuildPolicy, target: TargetCostModel,
                 ctx: LookAheadContext):
        self.policy = policy
        self.target = target
        self.ctx = ctx
        self.graph = SLPGraph()
        self.stats = BuildStats()
        if policy.reorder_strategy == "exhaustive":
            from .exhaustive import ExhaustiveReorderer

            self._reorderer = ExhaustiveReorderer(
                ctx,
                look_ahead_depth=policy.look_ahead_depth,
                score_function=policy.score_function,
                meter=policy.meter,
            )
        elif policy.reorder_strategy == "greedy":
            self._reorderer = OperandReorderer(
                ctx,
                look_ahead_depth=policy.look_ahead_depth,
                score_function=policy.score_function,  # type: ignore[arg-type]
                enable_splat_detection=policy.enable_splat_detection,
                meter=policy.meter,
            )
        else:
            raise ValueError(
                f"unknown reorder strategy {policy.reorder_strategy!r}"
            )

    # ------------------------------------------------------------------

    def build(self, seeds: Sequence[Instruction]) -> SLPGraph:
        """Build the graph rooted at ``seeds`` (consecutive stores, or
        the operand lanes of a reduction)."""
        self.graph.root = self._build_rec(list(seeds))
        return self.graph

    # ------------------------------------------------------------------

    def _build_rec(self, lanes: list[Value]) -> SLPNode:
        existing = self.graph.existing_node(lanes)
        if existing is not None:
            return existing
        meter = self.policy.meter
        if meter is not None and meter.time_exceeded():
            # Out of compile-time budget: stop growing the graph.  A
            # gather is always legal, merely unprofitable.
            return self._gather(lanes)
        if not self._group_is_vectorizable(lanes):
            return self._gather(lanes)

        insts: list[Instruction] = lanes  # type: ignore[assignment]
        first = insts[0]

        if isinstance(first, Load):
            return self._build_load_group(insts)
        if isinstance(first, Store):
            node = VectorizableNode(insts)
            self.graph.add(node)
            self.stats.nodes += 1
            node.children = [
                self._build_rec([s.value for s in insts])
            ]
            return node
        if isinstance(first, BinaryOperator) and first.is_commutative:
            return self._build_commutative(insts)
        # Non-commutative instructions: operands recurse in order
        # (Listing 4, line 25).
        node = VectorizableNode(insts)
        self.graph.add(node)
        self.stats.nodes += 1
        node.children = [
            self._build_rec([inst.operands[slot] for inst in insts])
            for slot in range(len(first.operands))
        ]
        return node

    # ---- loads ---------------------------------------------------------

    def _build_load_group(self, loads: list[Instruction]) -> SLPNode:
        """Loads vectorize only when lane order equals address order."""
        consecutive = all(
            self.ctx.scev.accesses_consecutive(loads[k], loads[k + 1])
            for k in range(len(loads) - 1)
        )
        if not consecutive:
            return self._gather(loads)
        node = VectorizableNode(loads)
        self.graph.add(node)
        self.stats.nodes += 1
        return node

    # ---- commutative chains ------------------------------------------------

    def _build_commutative(self, insts: list[Instruction]) -> SLPNode:
        """Form a multi-node (possibly of size 1) and reorder its operand
        frontier (Listing 4, commutative path)."""
        rows, operand_groups = self._coarsen(insts)
        if self.policy.enable_reordering:
            result = self._reorder(operand_groups)
            operand_groups = result.final_order
        node = MultiNode(rows, operand_groups)
        self.graph.add(node)
        self.stats.nodes += 1
        if len(rows) > 1:
            self.stats.multi_nodes += 1
        node.children = [
            self._build_rec(list(group)) for group in node.operand_groups
        ]
        return node

    def _coarsen(self, root: list[Instruction]) -> tuple[
            list[list[Instruction]], list[list[Value]]]:
        """Coarsening mode (Listing 4): grow the multi-node through
        operand groups whose lanes all continue the same-opcode
        commutative chain and do not escape."""
        opcode = root[0].opcode
        result_type = root[0].type
        max_rows = self.policy.multi_node_max_size
        rows: list[list[Instruction]] = [list(root)]
        in_rows: set[int] = {id(inst) for inst in root}
        operand_groups: list[list[Value]] = []

        def can_absorb(group: list[Value]) -> bool:
            if max_rows is not None and len(rows) >= max_rows:
                return False
            if not all(
                isinstance(v, BinaryOperator)
                and v.opcode == opcode
                and v.type is result_type
                for v in group
            ):
                return False
            insts: list[Instruction] = group  # type: ignore[assignment]
            ids = [id(v) for v in insts]
            if len(set(ids)) != len(ids) or any(i in in_rows for i in ids):
                return False
            if self.graph.any_claimed(insts):
                return False
            if same_block(insts) is not same_block(root):
                return False
            # Escape check: internal chain values must feed only their
            # parent inside the multi-node (Listing 4 line 14).
            for inst in insts:
                if inst.num_uses != 1:
                    return False
                if id(inst.uses[0].user) not in in_rows:
                    return False
            return bundle_is_schedulable(insts)

        def expand(group: list[Value]) -> None:
            if can_absorb(group):
                insts: list[Instruction] = group  # type: ignore[assignment]
                rows.append(list(insts))
                in_rows.update(id(inst) for inst in insts)
                for slot in range(2):
                    expand([inst.operands[slot] for inst in insts])
            else:
                operand_groups.append(list(group))

        for slot in range(2):
            expand([inst.operands[slot] for inst in root])
        return rows, operand_groups

    def _reorder(self, operand_groups: list[list[Value]]) -> ReorderResult:
        self.stats.reorders += 1
        result = self._reorderer.reorder(operand_groups)
        self.stats.lookahead_evals += result.lookahead_evals
        if _records.wants("reorder"):
            _records.emit(
                "reorder",
                slots=len(operand_groups),
                lanes=len(operand_groups[0]) if operand_groups else 0,
                evals=result.lookahead_evals,
                strategy=self.policy.reorder_strategy,
                modes=[mode.value for mode in result.modes],
            )
        return result

    # ---- gathering and legality -----------------------------------------------

    def _gather(self, lanes: list[Value]) -> GatherNode:
        node = GatherNode(lanes)
        self.graph.add(node)
        self.stats.gathers += 1
        return node

    def _group_is_vectorizable(self, lanes: list[Value]) -> bool:
        """The paper's footnote-1 conditions for forming a group."""
        # (i) all lanes are scalar instructions
        if not all(isinstance(v, Instruction) for v in lanes):
            return False
        insts: list[Instruction] = lanes  # type: ignore[assignment]
        if any(
            inst.type.is_vector
            or any(op.type.is_vector for op in inst.operands)
            for inst in insts
        ):
            return False
        # (ii) isomorphic: same opcode, same type, comparable flavor
        first = insts[0]
        if not isinstance(
            first, (BinaryOperator, UnaryOperator, Load, Store, Cmp, Select)
        ):
            return False
        if any(inst.opcode != first.opcode for inst in insts):
            return False
        if any(inst.type is not first.type for inst in insts):
            return False
        if isinstance(first, Store) and any(
            inst.value.type is not first.value.type for inst in insts
        ):
            return False
        if isinstance(first, Cmp) and any(
            inst.predicate != first.predicate for inst in insts  # type: ignore[attr-defined]
        ):
            return False
        # (iii) unique lanes
        ids = [id(inst) for inst in insts]
        if len(set(ids)) != len(ids):
            return False
        # the target must have a register wide enough for this group
        elem = first.value.type if isinstance(first, Store) else first.type
        if not elem.is_scalar:
            return False
        if not self.target.supports_vector(vector_of(elem, len(insts))):
            return False
        # (iv) same basic block
        if same_block(insts) is None:
            return False
        # (vi) not already claimed by another group in this graph
        if self.graph.any_claimed(insts):
            return False
        # (v) schedulable as one bundle
        return bundle_is_schedulable(insts)


__all__ = ["BuildPolicy", "BuildStats", "GraphBuilder"]
