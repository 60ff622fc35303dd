"""If-conversion: flatten hammocks and diamonds into select form.

Every downstream layer of the reproduction — the per-block SLP seed
collector, the plan/select/apply pipeline, the module selector, the
backend emitter's straight-line fast path — works best on single-block
regions.  A guarded store per lane therefore hides an entire kernel
family from the vectorizer: four ``if (c) B[i+k] = ...; else B[i+k] =
...;`` diamonds put each lane's store in a different basic block, so the
seed collector (which scans one block at a time) never sees consecutive
stores and the kernel is served scalar.

This pass rewrites two single-entry/single-exit shapes into
straight-line code::

    diamond                      triangle (hammock)
        B: condbr c, T, F            B: condbr c, T, M
        T: ...; br M                 T: ...; br M
        F: ...; br M                 M: ...
        M: phi [T, F]; ...

* side-effect-free arm instructions are *speculated* into ``B`` (the
  legality rules live in :func:`repro.ir.semantics.opcode_may_trap`:
  division only moves when its divisor is a provably non-zero
  constant);
* merge-block phis become ``select c, v_true, v_false``;
* a pair of arm stores that must-alias (same base + same constant
  element offset, per :mod:`repro.analysis.aliasing`) merges into one
  unconditional ``store (select c, v_t, v_f), p`` — the address is
  written on *every* path, so no dereferenceability proof is needed;
* an unpaired guarded store becomes ``old = load p; store (select c, v,
  old), p``, but only when ``p`` is provably dereferenceable on both
  paths: either a constant in-bounds index into a global array, or
  must-aliasing an access that already executes unconditionally before
  the branch.

Anything else — calls, nested control flow, may-alias hazards, symbolic
guarded-store addresses — *declines* with a structured remark, an
``ifconvert`` record and an ``ifconvert.declined`` metric; the CFG is
left untouched, never miscompiled.

The cost gate (``mode="cost"``) charges the speculated work (both arms
now always execute, plus the inserted selects and guard loads) against
the branch-removal savings (the ``condbr``, the arm ``br``, and the phi
resolution all disappear), using the same
:class:`~repro.costmodel.tti.TargetCostModel` that prices SLP trees and
simulated cycles.  ``mode="on"`` converts whenever legal; ``"off"`` is
the pass-through default that keeps every existing pipeline
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.aliasing import AliasAnalysis, AliasResult
from ..costmodel.tti import TargetCostModel
from ..ir.basicblock import BasicBlock
from ..ir.call import Call
from ..ir.cfg import predecessors
from ..ir.controlflow import Br, CondBr, Phi
from ..ir.function import Function
from ..ir.instructions import (
    BinaryOperator,
    Cmp,
    GetElementPtr,
    InsertElement,
    ExtractElement,
    Load,
    Select,
    ShuffleVector,
    Splat,
    Store,
    UnaryOperator,
)
from ..ir.semantics import opcode_may_trap
from ..ir.values import Constant, GlobalArray, Value
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..robustness import diagnostics
from .simplifycfg import merge_straight_line_blocks

#: accepted values for the ``ifconvert`` knob
IFCONVERT_MODES = ("off", "on", "cost")

#: instruction classes that are pure value computations (no memory, no
#: control); divisions among them still need the divisor check
_PURE_CLASSES = (
    BinaryOperator,
    UnaryOperator,
    Cmp,
    Select,
    GetElementPtr,
    Splat,
    InsertElement,
    ExtractElement,
    ShuffleVector,
)


@dataclass
class _Shape:
    """One convertible region: ``block`` ends in the condbr; ``arms``
    holds the speculated block(s) (one for a triangle, two for a
    diamond); ``merge`` is the common exit."""

    kind: str                      #: "diamond" | "triangle"
    block: BasicBlock
    condition: Value
    true_arm: Optional[BasicBlock]   #: None when the true edge falls through
    false_arm: Optional[BasicBlock]  #: None when the false edge falls through
    merge: BasicBlock

    @property
    def arms(self) -> list[BasicBlock]:
        return [a for a in (self.true_arm, self.false_arm) if a is not None]


def is_speculatable(inst) -> bool:
    """May ``inst`` execute on a path that originally skipped it?

    Pure value computations qualify; division needs a constant non-zero
    divisor (:func:`repro.ir.semantics.opcode_may_trap`).  Loads and
    stores are *not* handled here — they need the dereferenceability
    proof the pass supplies; calls, phis and terminators never qualify.
    """
    if not isinstance(inst, _PURE_CLASSES):
        return False
    if isinstance(inst, BinaryOperator) and opcode_may_trap(inst.opcode):
        divisor = inst.rhs
        if not isinstance(divisor, Constant):
            return False
        return not opcode_may_trap(inst.opcode, divisor.value)
    return True


class IfConverter:
    """One ``run_ifconvert`` invocation over one function."""

    def __init__(self, func: Function, mode: str = "on",
                 target: Optional[TargetCostModel] = None):
        if mode not in IFCONVERT_MODES:
            raise ValueError(
                f"unknown ifconvert mode {mode!r}; use one of "
                f"{'/'.join(IFCONVERT_MODES)}"
            )
        self.func = func
        self.mode = mode
        self.target = target if target is not None else TargetCostModel()
        #: block ids already reported as declined (one remark per site)
        self._declined: set[int] = set()

    # ---- driver --------------------------------------------------------

    def run(self) -> bool:
        if self.mode == "off":
            return False
        changed = False
        progress = True
        while progress:
            progress = False
            for block in list(self.func.blocks):
                shape = self._match(block)
                if shape is None:
                    continue
                reason = self._legal(shape)
                if reason is None and self.mode == "cost":
                    reason = self._cost_gate(shape)
                if reason is not None:
                    self._decline(shape, reason)
                    continue
                self._convert(shape)
                # Folding the region usually leaves ``merge`` with a
                # single predecessor; merging it back into ``block``
                # exposes nested shapes to the next sweep.
                merge_straight_line_blocks(self.func)
                progress = True
                changed = True
                break
        return changed

    # ---- shape matching ------------------------------------------------

    def _match(self, block: BasicBlock) -> Optional[_Shape]:
        term = block.terminator
        if not isinstance(term, CondBr):
            return None
        on_true, on_false = term.on_true, term.on_false
        if on_true is on_false:
            return None
        preds = predecessors(self.func)

        def plain_arm(arm: BasicBlock) -> Optional[BasicBlock]:
            """``arm`` qualifies when ``block`` is its only predecessor,
            it has no phis, and it exits through one plain branch."""
            if arm is self.func.entry or arm is block:
                return None
            if len(preds[id(arm)]) != 1 or arm.phis():
                return None
            if not isinstance(arm.terminator, Br):
                return None
            return arm.terminator.target

        true_exit = plain_arm(on_true)
        false_exit = plain_arm(on_false)
        if (true_exit is not None and false_exit is not None
                and true_exit is false_exit and true_exit is not block):
            merge = true_exit
            if {id(p) for p in preds[id(merge)]} == {id(on_true),
                                                     id(on_false)}:
                return _Shape("diamond", block, term.condition,
                              on_true, on_false, merge)
        if true_exit is on_false and true_exit is not block:
            merge = on_false
            if {id(p) for p in preds[id(merge)]} == {id(block),
                                                     id(on_true)}:
                return _Shape("triangle", block, term.condition,
                              on_true, None, merge)
        if false_exit is on_true and false_exit is not block:
            merge = on_true
            if {id(p) for p in preds[id(merge)]} == {id(block),
                                                     id(on_false)}:
                return _Shape("triangle", block, term.condition,
                              None, on_false, merge)
        return None

    # ---- legality ------------------------------------------------------

    def _legal(self, shape: _Shape) -> Optional[str]:
        """None when the region converts safely, else the decline reason."""
        aa = AliasAnalysis()
        for arm in shape.arms:
            stores_seen: list[Store] = []
            for inst in arm.instructions:
                if inst is arm.terminator:
                    continue
                if isinstance(inst, Call):
                    return "side-effecting call in arm"
                if isinstance(inst, Phi) or inst.is_terminator:
                    return "control flow inside arm"
                if isinstance(inst, Store):
                    stores_seen.append(inst)
                    continue
                if isinstance(inst, Load):
                    # Speculated loads float above the predicated
                    # stores; they must not depend on a store from the
                    # same arm.
                    for store in stores_seen:
                        if aa.instructions_may_conflict(inst, store):
                            return "load depends on guarded store"
                    if not self._dereferenceable(aa, shape, inst):
                        return "speculated load not provably in bounds"
                    continue
                if not is_speculatable(inst):
                    return f"{inst.opcode} is not speculatable"
        # Cross-arm stores must pair exactly (MUST) or not at all (NO):
        # a MAY overlap makes the write-back order observable.
        true_stores = self._arm_stores(shape.true_arm)
        false_stores = self._arm_stores(shape.false_arm)
        for group in (true_stores, false_stores):
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    if aa.alias(a.ptr, b.ptr) is not AliasResult.NO_ALIAS:
                        return "overlapping stores within one arm"
        paired: set[int] = set()
        for t in true_stores:
            for f in false_stores:
                relation = aa.alias(t.ptr, f.ptr)
                if relation is AliasResult.MAY_ALIAS:
                    return "cross-path stores may alias"
                if relation is AliasResult.MUST_ALIAS:
                    paired.add(id(t))
                    paired.add(id(f))
        # Unpaired stores stay guarded: the inserted old-value load (and
        # the write-back) touch the address even when the branch skipped
        # the arm, so the address must be dereferenceable on both paths.
        for store in true_stores + false_stores:
            if id(store) in paired:
                continue
            if not self._dereferenceable(aa, shape, store):
                return "guarded store address not provably dereferenceable"
        return None

    @staticmethod
    def _arm_stores(arm: Optional[BasicBlock]) -> list[Store]:
        if arm is None:
            return []
        return [i for i in arm.instructions if isinstance(i, Store)]

    def _dereferenceable(self, aa: AliasAnalysis, shape: _Shape,
                         access) -> bool:
        """Is the access's address valid on the path that skipped it?

        Two proofs: a constant index into a global array that stays in
        bounds for the access footprint, or a must-alias with a
        load/store that executes unconditionally in ``shape.block``
        before the branch.
        """
        scev = aa.scev
        pointer = scev.access_pointer(access)
        width = (access.type.count if isinstance(access, Load)
                 and access.type.is_vector else 1)
        if isinstance(access, Store) and access.value.type.is_vector:
            width = access.value.type.count
        if (pointer is not None and isinstance(pointer.base, GlobalArray)
                and pointer.index.is_constant
                and 0 <= pointer.index.offset <= pointer.base.count - width):
            return True
        ptr = access.ptr
        for inst in shape.block.instructions:
            if inst is shape.block.terminator:
                break
            if isinstance(inst, (Load, Store)):
                if aa.alias(inst.ptr, ptr) is AliasResult.MUST_ALIAS:
                    return True
        return False

    # ---- cost gate -----------------------------------------------------

    def _cost_gate(self, shape: _Shape) -> Optional[str]:
        """Charge the speculated work against the branch savings."""
        cost = self.target.issue_cost
        aa = AliasAnalysis()
        arm_costs = []
        for arm in (shape.true_arm, shape.false_arm):
            if arm is None:
                arm_costs.append(0)
                continue
            arm_costs.append(sum(
                cost(inst) for inst in arm.instructions
                if inst is not arm.terminator
            ))
        select_cost = self.target.desc.scalar_select_cost
        extra = 0
        true_stores = self._arm_stores(shape.true_arm)
        false_stores = self._arm_stores(shape.false_arm)
        paired = 0
        for t in true_stores:
            for f in false_stores:
                if aa.alias(t.ptr, f.ptr) is AliasResult.MUST_ALIAS:
                    paired += 1
        # Merged pairs trade two stores for one store + one select; an
        # unpaired guarded store adds an old-value load + one select.
        extra += paired * (select_cost - self.target.desc.scalar_store_cost)
        unpaired = len(true_stores) + len(false_stores) - 2 * paired
        extra += unpaired * (self.target.desc.scalar_load_cost + select_cost)
        phi_selects = select_cost * len(shape.merge.phis())
        converted = sum(arm_costs) + extra + phi_selects
        branch = self.target.desc.branch_cost
        # Worst original path: the condbr, the costlier arm plus its
        # br, and one phi resolution per merge phi.
        original = (branch + max(arm_costs)
                    + branch * max(1, len(shape.arms))
                    + branch * len(shape.merge.phis()))
        if converted > original:
            return (f"speculation cost {converted} exceeds branch "
                    f"savings {original}")
        return None

    # ---- transform -----------------------------------------------------

    def _convert(self, shape: _Shape) -> None:
        func = self.func
        block = shape.block
        condition = shape.condition
        term = block.terminator
        term.drop_all_references()
        block.remove(term)

        aa = AliasAnalysis()
        true_stores = self._arm_stores(shape.true_arm)
        false_stores = self._arm_stores(shape.false_arm)

        # 1. Speculate the pure arm instructions (program order, true
        #    arm first); stores stay behind for predication.
        for arm in shape.arms:
            for inst in list(arm.instructions):
                if inst is arm.terminator or isinstance(inst, Store):
                    continue
                arm.remove(inst)
                block.append(inst)

        # 2. Predicate the stores.  Must-alias cross-arm pairs merge
        #    into one unconditional store of a select; the rest keep the
        #    old value on the untaken path via load/select/store.
        matched: dict[int, Store] = {}
        for t in true_stores:
            for f in false_stores:
                if aa.alias(t.ptr, f.ptr) is AliasResult.MUST_ALIAS:
                    matched[id(t)] = f
                    matched[id(f)] = t
        emitted: set[int] = set()
        for store in true_stores + false_stores:
            if id(store) in emitted:
                continue
            partner = matched.get(id(store))
            if partner is not None:
                on_true, on_false = store.value, partner.value
                if store in false_stores:
                    on_true, on_false = on_false, on_true
                select = Select(condition, on_true, on_false,
                                func.unique_name("ifc.merge"))
                block.append(select)
                block.append(Store(select, store.ptr))
                emitted.add(id(store))
                emitted.add(id(partner))
                continue
            old = Load(store.value.type, store.ptr,
                       func.unique_name("ifc.old"))
            block.append(old)
            if store in true_stores:
                select = Select(condition, store.value, old,
                                func.unique_name("ifc.guard"))
            else:
                select = Select(condition, old, store.value,
                                func.unique_name("ifc.guard"))
            block.append(select)
            block.append(Store(select, store.ptr))
            emitted.add(id(store))
        for store in true_stores + false_stores:
            store.drop_all_references()
            store.parent.remove(store)

        # 3. Merge-block phis become selects on the branch condition.
        true_pred = shape.true_arm if shape.true_arm is not None else block
        false_pred = (shape.false_arm if shape.false_arm is not None
                      else block)
        for phi in shape.merge.phis():
            select = Select(condition, phi.incoming_for(true_pred),
                            phi.incoming_for(false_pred),
                            phi.name or func.unique_name("ifc.phi"))
            block.append(select)
            phi.replace_all_uses_with(select)
            phi.drop_all_references()
            phi.incoming_blocks = []
            shape.merge.remove(phi)

        # 4. Retire the arm blocks and fall through to the merge.
        for arm in shape.arms:
            arm_term = arm.terminator
            arm_term.drop_all_references()
            arm.remove(arm_term)
            func.blocks.remove(arm)
        block.append(Br(shape.merge))

        _metrics.add("ifconvert.converted", 1)
        _records.emit("ifconvert", event="converted", shape=shape.kind,
                      reason="")

    # ---- diagnostics ---------------------------------------------------

    def _decline(self, shape: _Shape, reason: str) -> None:
        if id(shape.block) in self._declined:
            return
        self._declined.add(id(shape.block))
        diagnostics.current().note(
            "ifconvert",
            f"not converting {shape.kind} at {shape.block.name}: {reason}",
            phase="transform",
            remediation=(
                "rewrite the guarded code so both paths access the same "
                "locations, or keep it scalar"
            ),
            record="ifconvert", counters={"ifconvert.declined": 1},
            event="declined", shape=shape.kind, reason=reason,
        )


def run_ifconvert(func: Function, mode: str = "on",
                  target: Optional[TargetCostModel] = None) -> bool:
    """Flatten every convertible hammock/diamond of ``func``.

    Returns True when the CFG changed.  ``mode`` is "on" (convert
    whenever legal), "cost" (convert only when the speculated work does
    not exceed the branch-removal savings) or "off" (no-op).  Decline
    remarks go to the compile context
    (:func:`repro.robustness.diagnostics.current`), which streams them
    and, in a compile, hands them to ``CompileResult.remarks``.
    """
    return IfConverter(func, mode=mode, target=target).run()


__all__ = ["IfConverter", "IFCONVERT_MODES", "is_speculatable",
           "run_ifconvert"]
