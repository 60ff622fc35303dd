"""Basic blocks: ordered straight-line instruction sequences."""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from .instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """An ordered list of instructions ending (at most) in a terminator.

    The SLP vectorizer only groups instructions that live in the same
    basic block, and instruction order within the block defines the
    scheduling constraints, so the block offers fast index lookup.
    """

    def __init__(self, name: str = "entry"):
        self.name = name
        self.parent: Optional["Function"] = None
        self._instructions: list[Instruction] = []
        self._index_cache: dict[int, int] = {}
        self._index_cache_valid = False

    # ---- iteration -----------------------------------------------------

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    @property
    def instructions(self) -> list[Instruction]:
        return list(self._instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self._instructions and self._instructions[-1].is_terminator:
            return self._instructions[-1]
        return None

    # ---- mutation ------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` at the end of the block (before no-one)."""
        self._attach(inst)
        self._instructions.append(inst)
        self._invalidate_index()
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> None:
        """Insert ``inst`` immediately before ``anchor``."""
        pos = self.index_of(anchor)
        self._attach(inst)
        self._instructions.insert(pos, inst)
        self._invalidate_index()

    def insert_after(self, anchor: Instruction, inst: Instruction) -> None:
        """Insert ``inst`` immediately after ``anchor``."""
        pos = self.index_of(anchor)
        self._attach(inst)
        self._instructions.insert(pos + 1, inst)
        self._invalidate_index()

    def remove(self, inst: Instruction) -> None:
        """Detach ``inst`` from this block (does not drop operand uses).

        Uses the position cache only while it is valid: rebuilding it
        for every removal would make erasing k instructions O(k·n) in
        Python rather than in ``list.index``.
        """
        if inst.parent is not self:
            raise ValueError(f"{inst!r} is not in block {self.name}")
        if self._index_cache_valid:
            pos = self._index_cache[id(inst)]
        else:
            pos = self._instructions.index(inst)
        del self._instructions[pos]
        inst.parent = None
        self._invalidate_index()

    def _attach(self, inst: Instruction) -> None:
        if inst.parent is not None:
            raise ValueError(f"{inst!r} is already in a block")
        inst.parent = self

    # ---- queries -------------------------------------------------------

    def index_of(self, inst: Instruction) -> int:
        """Position of ``inst`` in this block (cached, O(1) amortized)."""
        if inst.parent is not self:
            raise ValueError(f"{inst!r} is not in block {self.name}")
        if not self._index_cache_valid:
            self._index_cache = {
                id(i): pos for pos, i in enumerate(self._instructions)
            }
            self._index_cache_valid = True
        return self._index_cache[id(inst)]

    def _invalidate_index(self) -> None:
        self._index_cache_valid = False

    def comes_before(self, a: Instruction, b: Instruction) -> bool:
        """True when ``a`` is scheduled strictly before ``b``."""
        return self.index_of(a) < self.index_of(b)

    def successors(self) -> list["BasicBlock"]:
        """CFG successors, from the terminator (empty for ret/none)."""
        term = self.terminator
        if term is None or not hasattr(term, "successors"):
            return []
        return term.successors()

    def phis(self) -> list[Instruction]:
        """The phi nodes at the head of this block."""
        result = []
        for inst in self._instructions:
            if inst.opcode == "phi":
                result.append(inst)
            else:
                break
        return result

    def first_non_phi(self) -> Optional[Instruction]:
        for inst in self._instructions:
            if inst.opcode != "phi":
                return inst
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name}: {len(self)} insts>"
