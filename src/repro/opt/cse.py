"""Common subexpression elimination for straight-line code.

Within each basic block, pure instructions that compute the same
expression (same opcode, same operand identities, same immediates) are
merged into the first occurrence.  Redundant loads are merged too, in
the EarlyCSE style: a load is available until any instruction that may
write memory executes (conservatively, any store kills all loads).
"""

from __future__ import annotations

from ..analysis.aliasing import AliasAnalysis
from ..ir.call import Call
from ..ir.function import Function
from ..ir.instructions import (
    BinaryOperator,
    Cmp,
    GetElementPtr,
    Load,
    Select,
    Store,
    UnaryOperator,
)
from ..ir.values import Constant


def _expression_key(inst):
    """Hashable structural identity of a pure instruction, or None."""
    if not isinstance(
        inst, (BinaryOperator, UnaryOperator, Cmp, Select, GetElementPtr)
    ):
        return None
    operand_keys = tuple(
        ("const", op.type, op.value) if isinstance(op, Constant)
        else ("value", id(op))
        for op in inst.operands
    )
    if isinstance(inst, BinaryOperator) and inst.is_commutative:
        operand_keys = tuple(sorted(operand_keys))
    extra = inst.predicate if isinstance(inst, Cmp) else None
    return (inst.opcode, extra, inst.type, operand_keys)


def _load_key(inst):
    if isinstance(inst, Load):
        return ("load", inst.type, id(inst.ptr))
    return None


def run_cse(func: Function) -> bool:
    """Merge structurally identical pure expressions and redundant loads
    per block, in one scan.

    A merge rewrites every later use of the duplicate to the surviving
    instruction, so keys computed further down the block already see the
    survivor and cascades (``a+b`` merged makes ``(a+b)*c`` a duplicate)
    fold in the same scan.  Keys of earlier instructions never mention a
    later one, so the tables stay valid across a merge.
    """
    changed = False
    aa = AliasAnalysis()
    for block in func.blocks:
        seen: dict = {}
        loads: dict = {}
        for inst in block.instructions:
            if isinstance(inst, Call):
                loads.clear()
                continue
            if isinstance(inst, Store):
                # keep loads the store provably cannot touch
                loads = {
                    key: load
                    for key, load in loads.items()
                    if not aa.instructions_may_conflict(load, inst)
                }
                continue
            key = _expression_key(inst)
            table = seen
            if key is None:
                key = _load_key(inst)
                table = loads
            if key is None:
                continue
            original = table.get(key)
            if original is None:
                table[key] = inst
                continue
            inst.replace_all_uses_with(original)
            inst.erase_from_parent()
            changed = True
    return changed


__all__ = ["run_cse"]
