"""The SLP graph: the vectorizer's core data structure.

The graph is a DAG of *nodes*, each holding one value per SIMD lane:

* :class:`VectorizableNode` — a group of isomorphic scalar instructions
  that will be fused into a single vector instruction.
* :class:`MultiNode` — LSLP's contribution (paper §4.2): a group whose
  lanes are *chains* of commutative instructions of one opcode.  The
  chain's internal structure per lane may differ (associativity); only
  the multiset of frontier operands matters, and those frontier operand
  groups are this node's children after look-ahead reordering.
* :class:`GatherNode` — a non-vectorizable group; its lanes stay scalar
  and are gathered into a vector register with insertelement chains.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..ir.instructions import Instruction
from ..ir.values import Value
from ..obs.canon import canonicalize_handles


class SLPNode:
    """Base class for SLP graph nodes; ``lanes`` has one value per lane."""

    def __init__(self, lanes: Sequence[Value]):
        if len(lanes) < 2:
            raise ValueError("an SLP node needs at least two lanes")
        self.lanes: list[Value] = list(lanes)
        self.children: list[SLPNode] = []

    @property
    def vector_length(self) -> int:
        return len(self.lanes)

    @property
    def is_gather(self) -> bool:
        return isinstance(self, GatherNode)

    @property
    def is_multi_node(self) -> bool:
        return isinstance(self, MultiNode)

    def all_instructions(self) -> list[Instruction]:
        """Every scalar instruction this node will replace."""
        return [v for v in self.lanes if isinstance(v, Instruction)]

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.describe()}>"


class VectorizableNode(SLPNode):
    """A group of isomorphic instructions fused into one vector op."""

    def __init__(self, lanes: Sequence[Instruction]):
        super().__init__(lanes)
        self.opcode = lanes[0].opcode

    def describe(self) -> str:
        names = ", ".join(v.short_name() for v in self.lanes)
        return f"{self.opcode} [{names}]"


class MultiNode(SLPNode):
    """A group of same-opcode commutative chains (paper §4.2, Figure 6).

    ``rows`` holds the internal instruction groups, one per chain level
    (the root group first); every instruction in every row is consumed by
    the vector code this node expands to.  ``operand_groups`` are the
    frontier operands — ``len(rows) + 1`` groups of ``VL`` values — whose
    order across lanes is decided by the look-ahead reordering.
    """

    def __init__(self, rows: Sequence[Sequence[Instruction]],
                 operand_groups: Sequence[Sequence[Value]]):
        super().__init__(rows[0])
        self.opcode = rows[0][0].opcode
        self.rows: list[list[Instruction]] = [list(row) for row in rows]
        self.operand_groups: list[list[Value]] = [
            list(group) for group in operand_groups
        ]

    @property
    def num_operands(self) -> int:
        return len(self.operand_groups)

    def all_instructions(self) -> list[Instruction]:
        return [inst for row in self.rows for inst in row]

    def describe(self) -> str:
        return (
            f"multi-node {self.opcode} x{len(self.rows)} rows, "
            f"{self.num_operands} operands"
        )


class GatherNode(SLPNode):
    """A group that stays scalar; lanes are gathered into a vector."""

    def describe(self) -> str:
        names = ", ".join(v.short_name() for v in self.lanes)
        return f"gather [{names}]"

    @property
    def is_splat(self) -> bool:
        first = self.lanes[0]
        return all(lane is first for lane in self.lanes[1:])


class SLPGraph:
    """The full graph for one seed group: root plus reachable nodes."""

    def __init__(self, root: Optional[SLPNode] = None):
        self.root = root
        self.nodes: list[SLPNode] = []
        #: instructions already claimed by some node (uniqueness check vi)
        self._claimed: set[int] = set()
        #: memo of lane-tuples -> node, for DAG reuse (diamonds)
        self._by_lanes: dict[tuple[int, ...], SLPNode] = {}

    def add(self, node: SLPNode) -> SLPNode:
        self.nodes.append(node)
        if not node.is_gather:
            for inst in node.all_instructions():
                self._claimed.add(id(inst))
            self._by_lanes[self._lane_key(node.lanes)] = node
        return node

    @staticmethod
    def _lane_key(lanes: Sequence[Value]) -> tuple[int, ...]:
        return tuple(id(v) for v in lanes)

    def existing_node(self, lanes: Sequence[Value]) -> Optional[SLPNode]:
        """An already-built vectorizable node with exactly these lanes."""
        return self._by_lanes.get(self._lane_key(lanes))

    def is_claimed(self, inst: Instruction) -> bool:
        return id(inst) in self._claimed

    def any_claimed(self, values: Sequence[Value]) -> bool:
        return any(
            isinstance(v, Instruction) and self.is_claimed(v) for v in values
        )

    def walk(self) -> Iterator[SLPNode]:
        """All nodes reachable from the root, parents before children."""
        if self.root is None:
            return
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children))

    def vector_instructions(self) -> list[Instruction]:
        """Every scalar instruction that vector code will replace."""
        insts: list[Instruction] = []
        seen: set[int] = set()
        for node in self.walk():
            if node.is_gather:
                continue
            for inst in node.all_instructions():
                if id(inst) not in seen:
                    seen.add(id(inst))
                    insts.append(inst)
        return insts

    def dump(self) -> str:
        """Readable multi-line description of the graph (for debugging
        and the walkthrough example).

        Unnamed values (stores, mainly) print as ``%<hex-id>`` handles;
        those are process-specific, so they are canonicalized to
        ``%u0, %u1, ...`` in first-appearance order — two compiles of
        the same kernel dump byte-identical text, which the compile
        cache and the batch-determinism guarantees rely on."""
        lines: list[str] = []

        def visit(node: SLPNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children:
                visit(child, depth + 1)

        if self.root is not None:
            visit(self.root, 0)
        return canonicalize_handles("\n".join(lines))

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the graph as an anonymous
        ``digraph`` (same canonicalized ``%uN`` id-handles as
        :meth:`dump`, so two compiles of the same kernel export
        byte-identical DOT).

        Node shapes mirror the node taxonomy: boxes for vectorizable
        groups, double boxes ("box3d") for LSLP multi-nodes, dashed
        ellipses for gathers.  Edges run parent → operand child in
        operand order.  Load with ``dot -Tpng`` / ``xdot`` to debug
        multi-node and look-ahead decisions visually.
        """
        lines = ["digraph {",
                 "  rankdir=TB;",
                 '  node [fontname="monospace", fontsize=10];']
        ids: dict[int, str] = {}
        order: list[SLPNode] = list(self.walk())
        for number, node in enumerate(order):
            ids[id(node)] = f"n{number}"
        for node in order:
            if node.is_gather:
                shape = 'shape=ellipse, style=dashed'
            elif node.is_multi_node:
                shape = 'shape=box3d'
            else:
                shape = 'shape=box'
            label = node.describe().replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'  {ids[id(node)]} [label="{label}", {shape}];'
            )
        for node in order:
            for slot, child in enumerate(node.children):
                lines.append(
                    f'  {ids[id(node)]} -> {ids[id(child)]} '
                    f'[label="{slot}"];'
                )
        lines.append("}")
        return canonicalize_handles("\n".join(lines))


__all__ = [
    "GatherNode",
    "MultiNode",
    "SLPGraph",
    "SLPNode",
    "VectorizableNode",
]
