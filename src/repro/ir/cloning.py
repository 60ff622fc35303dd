"""Instruction and function cloning with value remapping.

:func:`clone_instruction` serves the loop unroller; :func:`clone_function`
produces the deep per-pass snapshots the guarded compilation driver
(:mod:`repro.robustness.guard`) rolls back to when a pass crashes or
corrupts the IR, and the scalar reference the differential oracle
interprets.
"""

from __future__ import annotations

from typing import Callable, Optional

from .basicblock import BasicBlock
from .call import Call
from .controlflow import Br, CondBr, Phi
from .function import Function
from .instructions import (
    BinaryOperator,
    Cmp,
    ExtractElement,
    GetElementPtr,
    InsertElement,
    Instruction,
    Load,
    Ret,
    Select,
    ShuffleVector,
    Splat,
    Store,
    UnaryOperator,
)
from .values import Value

#: maps original values to their replacements during cloning
ValueMap = dict[int, Value]

#: instruction classes carrying fields beyond type, name and operands
_EXTRA_FIELDS = frozenset({Phi, Br, CondBr, Cmp, ShuffleVector, Call})


def map_value(value: Value, vmap: ValueMap) -> Value:
    """The replacement for ``value`` under ``vmap`` (identity default)."""
    return vmap.get(id(value), value)


def clone_instruction(inst: Instruction, vmap: ValueMap) -> Instruction:
    """Clone ``inst`` with operands remapped through ``vmap``.

    Control-flow instructions (br/condbr/phi/ret) are intentionally not
    clonable here: the unroller handles control flow structurally.
    """
    ops = [map_value(op, vmap) for op in inst.operands]

    if isinstance(inst, BinaryOperator):
        return BinaryOperator(inst.opcode, ops[0], ops[1])
    if isinstance(inst, UnaryOperator):
        return UnaryOperator(inst.opcode, ops[0])
    if isinstance(inst, Cmp):
        return Cmp(inst.opcode, inst.predicate, ops[0], ops[1])
    if isinstance(inst, Select):
        return Select(ops[0], ops[1], ops[2])
    if isinstance(inst, GetElementPtr):
        return GetElementPtr(ops[0], ops[1])
    if isinstance(inst, Load):
        return Load(inst.type, ops[0])
    if isinstance(inst, Store):
        return Store(ops[0], ops[1])
    if isinstance(inst, InsertElement):
        return InsertElement(ops[0], ops[1], ops[2])
    if isinstance(inst, ExtractElement):
        return ExtractElement(ops[0], ops[1])
    if isinstance(inst, ShuffleVector):
        return ShuffleVector(ops[0], ops[1], inst.mask)
    if isinstance(inst, Splat):
        return Splat(ops[0], inst.type.count)
    if isinstance(inst, Call):
        return Call(inst.callee, ops)
    if isinstance(inst, (Br, CondBr, Phi, Ret)):
        raise ValueError(f"refusing to clone control flow: {inst!r}")
    raise ValueError(f"do not know how to clone {inst!r}")


def clone_function(func: Function, name: Optional[str] = None) -> Function:
    """Deep-copy ``func`` into a standalone :class:`Function`.

    The clone gets its own arguments, blocks and instructions (names
    preserved); constants, global arrays and callee functions stay
    shared.  Control flow is cloned structurally — branch targets and
    phi edges are remapped to the cloned blocks.  Operands are remapped
    as each instruction is cloned; only forward references (phi edges,
    which may follow loop back-edges, and defs that appear later in
    block order) are patched in a second pass once every instruction
    exists.  Every cloned value's use list comes out in block order,
    phi edges last, whatever the order in ``func``.
    """
    clone = Function(
        name if name is not None else func.name,
        [(arg.name, arg.type) for arg in func.arguments],
        func.return_type,
    )
    vmap: ValueMap = {}
    for old_arg, new_arg in zip(func.arguments, clone.arguments):
        vmap[id(old_arg)] = new_arg

    block_map: dict[int, BasicBlock] = {}
    for block in func.blocks:
        new_block = BasicBlock(block.name)
        new_block.parent = clone
        clone.blocks.append(new_block)
        block_map[id(block)] = new_block

    # Pass 1: clone every instruction, operands mapped through ``vmap``.
    # An instruction operand missing from ``vmap`` is defined later in
    # block order (or is foreign to ``func``): pass 2 revisits it.
    phis: list[tuple[Phi, Phi]] = []
    forward: list[tuple[Instruction, int]] = []
    for block in func.blocks:
        new_block = block_map[id(block)]
        for inst in block:
            if isinstance(inst, Phi):
                copy: Instruction = Phi(inst.type, inst.name)
                phis.append((inst, copy))
            elif isinstance(inst, Br):
                copy = Br(block_map[id(inst.target)])
            elif isinstance(inst, CondBr):
                copy = CondBr(map_value(inst.condition, vmap),
                              block_map[id(inst.on_true)],
                              block_map[id(inst.on_false)])
            elif isinstance(inst, Ret):
                value = inst.return_value
                copy = Ret(None if value is None else map_value(value, vmap))
            else:
                copy = clone_instruction(inst, vmap)
            # (a phi copy starts with no operands)
            originals = inst.operands
            for index, operand in enumerate(copy.operands):
                if operand is originals[index] and isinstance(operand,
                                                              Instruction):
                    forward.append((copy, index))
            copy.name = inst.name
            vmap[id(inst)] = copy
            new_block.append(copy)

    # Pass 2: patch forward references.  A forward user precedes its
    # def in block order, so its use moves ahead of the def's pass-1
    # uses: use lists stay in block order.
    patched: dict[Value, int] = {}
    for copy, index in forward:
        mapped = vmap.get(id(copy.operands[index]))
        if mapped is not None:
            copy.set_operand(index, mapped)
            patched[mapped] = patched.get(mapped, 0) + 1
    for value, count in patched.items():
        uses = value._uses
        value._uses = uses[-count:] + uses[:-count]
    for original, copy in phis:
        for value, pred in original.incoming():
            copy.add_incoming(map_value(value, vmap), block_map[id(pred)])

    clone._name_counts = dict(func._name_counts)
    return clone


def matches_clone(func: Function, clone: Function) -> bool:
    """True when restoring ``clone``, an earlier :func:`clone_function`
    copy of ``func``, would give back ``func`` as it is now.

    Compares every field :func:`clone_function` copies, with operands,
    phi edges and branch targets mapped positionally from ``func`` to
    ``clone``.  Keep the two in step: a field the clone copies but this
    check skips would let a stale snapshot stand in for a changed body.
    """
    if func._name_counts != clone._name_counts:
        return False
    if len(func.arguments) != len(clone.arguments):
        return False
    vmap: ValueMap = {}
    for arg, copy in zip(func.arguments, clone.arguments):
        if arg.name != copy.name or arg.type is not copy.type:
            return False
        vmap[id(arg)] = copy
    if len(func.blocks) != len(clone.blocks):
        return False
    block_map: dict[int, BasicBlock] = {}
    pairs: list[tuple[Instruction, Instruction]] = []
    special: list[tuple[Instruction, Instruction]] = []
    for block, block_copy in zip(func.blocks, clone.blocks):
        if block.name != block_copy.name or len(block) != len(block_copy):
            return False
        block_map[id(block)] = block_copy
        for inst, copy in zip(block, block_copy):
            cls = inst.__class__
            if (cls is not copy.__class__
                    or inst.opcode != copy.opcode
                    or inst.type is not copy.type
                    or inst.name != copy.name):
                return False
            vmap[id(inst)] = copy
            pairs.append((inst, copy))
            if cls in _EXTRA_FIELDS:
                special.append((inst, copy))

    get = vmap.get
    for inst, copy in pairs:
        # (values compare by identity)
        if [get(id(op), op) for op in inst.operands] != copy.operands:
            return False
    for inst, copy in special:
        if isinstance(inst, Phi):
            edges = [block_map.get(id(pred)) for pred in inst.incoming_blocks]
            if edges != copy.incoming_blocks:
                return False
        elif isinstance(inst, Br):
            if block_map.get(id(inst.target)) is not copy.target:
                return False
        elif isinstance(inst, CondBr):
            if (block_map.get(id(inst.on_true)) is not copy.on_true
                    or block_map.get(id(inst.on_false)) is not copy.on_false):
                return False
        elif isinstance(inst, Cmp):
            if inst.predicate != copy.predicate:
                return False
        elif isinstance(inst, ShuffleVector):
            if inst.mask != copy.mask:
                return False
        elif inst.callee is not copy.callee:  # Call
            return False
    return True


def discard_blocks(blocks: list[BasicBlock]) -> None:
    """Detach every instruction in ``blocks`` from its operands' use
    lists (best-effort: a crashed pass may have left them corrupt).

    Used when a cloned snapshot is thrown away, or when a corrupt body
    is replaced during rollback, so shared values (constants, globals,
    callee functions) do not accumulate stale uses.
    """
    for block in blocks:
        for inst in block.instructions:
            try:
                inst.drop_all_references()
            except Exception:
                pass  # use lists already corrupt; nothing left to unhook
            inst.parent = None


def discard_body(func: Function) -> None:
    """Drop ``func``'s entire body via :func:`discard_blocks`."""
    discard_blocks(func.blocks)
    func.blocks = []


__all__ = [
    "clone_function",
    "clone_instruction",
    "discard_blocks",
    "discard_body",
    "map_value",
    "matches_clone",
    "ValueMap",
]
