"""Loop unrolling: full unroll plus partial unroll-and-SLP.

The paper's setting (§2.1) assumes SLP runs after loop transformations
have exposed straight-line code.  This pass provides them, in two tiers:

* **Full unrolling** replaces a counted loop with constant bounds by its
  iterations laid out straight-line, turning

      for (long j = 0; j < 4; j = j + 1) { A[4*i + j] = ...; }

  into four consecutive statements the SLP seed collector can group.
  Loop-carried accumulators (``s = s + ...``) are threaded through the
  copies and substituted into their external uses.

* **Partial unrolling** (the ``--loop-vectorize`` mode) handles the
  loops full unrolling refuses — symbolic bounds, trip counts beyond the
  cap.  The loop is split into a *main loop* running ``factor``
  iterations per trip and the original loop kept as a *scalar epilogue*
  for the remainder::

      main.header: jm = phi [init, pre], [jm+F*step, main.body]
                   guard = icmp pred (jm + (F-1)*step), bound
                   condbr guard, main.body, header      ; epilogue
      main.body:   F copies of the body at jm, jm+step, ...
                   br main.header

  The main body is straight-line, so the existing plan/select/apply
  pipeline packs stores across iterations, and accumulator chains feed
  the reduction machinery in :mod:`repro.slp.reductions`.  A cost gate
  estimates the vectorized main loop against ``factor`` scalar
  iterations before transforming; unprofitable or unsupported loops stay
  scalar and say why.

Declines are never silent: every loop left scalar is one diagnostics
call — a ``loop-unroll`` remark, a ``loop.unroll`` record and a
``loop.unroll.declined`` metric — mirroring the if-converter's.

Loop recognition itself lives in :mod:`repro.analysis.loops`; the
legacy :class:`CountedLoop`/:func:`find_counted_loop` names are
re-exported for compatibility.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.loops import (
    DEFAULT_MAX_TRIP_COUNT,
    CountedLoop,
    CountedLoopInfo,
    find_counted_loop,
    find_natural_loops,
    match_counted_loop,
)
from ..analysis.scev import ScalarEvolution
from ..costmodel.tti import TargetCostModel
from ..ir.basicblock import BasicBlock
from ..ir.cloning import clone_instruction
from ..ir.controlflow import Br, CondBr, Phi
from ..ir.function import Function
from ..ir.instructions import (
    BinaryOperator,
    Cmp,
    GetElementPtr,
    Instruction,
    Load,
    Select,
    Store,
    UnaryOperator,
)
from ..ir.values import Constant, Value
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..robustness import diagnostics

#: refuse to fully unroll loops longer than this (see --unroll-max-trip)
MAX_TRIP_COUNT = DEFAULT_MAX_TRIP_COUNT


# ---------------------------------------------------------------------------
# Full unrolling
# ---------------------------------------------------------------------------


def unroll_loop(func: Function, loop, max_trip: Optional[int] = None
                ) -> bool:
    """Replace ``loop`` with straight-line copies of its body.

    Accepts either the legacy :class:`CountedLoop` or a generalized
    :class:`CountedLoopInfo`; accumulator phis are threaded through the
    copies and their final values substituted into external uses.
    """
    info: CountedLoopInfo = (
        loop.info if isinstance(loop, CountedLoop) else loop
    )
    cap = DEFAULT_MAX_TRIP_COUNT if max_trip is None else max_trip
    iteration = info.iterate(cap)
    if iteration is None:
        return False
    values, final_iv = iteration

    preheader_br = info.preheader.terminator
    body_insts = [
        inst for inst in info.body.instructions if not inst.is_terminator
    ]
    acc_running: dict[int, Value] = {
        id(acc.phi): acc.init for acc in info.accumulators
    }
    for j in values:
        vmap: dict[int, Value] = {
            id(info.iv): Constant(info.iv.type, j)
        }
        for acc in info.accumulators:
            vmap[id(acc.phi)] = acc_running[id(acc.phi)]
        for inst in body_insts:
            clone = clone_instruction(inst, vmap)
            clone.name = (
                func.unique_name(inst.name) if inst.name else ""
            )
            info.preheader.insert_before(preheader_br, clone)
            vmap[id(inst)] = clone
        for acc in info.accumulators:
            acc_running[id(acc.phi)] = vmap.get(id(acc.next), acc.next)

    # substitute final phi values into any uses outside the loop
    if info.phis_escape or info.accumulators:
        info.iv.replace_all_uses_with(Constant(info.iv.type, final_iv))
        for acc in info.accumulators:
            acc.phi.replace_all_uses_with(acc_running[id(acc.phi)])

    # Retarget the preheader straight to the exit and delete the loop.
    preheader_br.replace_successor(info.header, info.exit)
    _erase_region(func, [info.header, info.body])
    return True


def _erase_region(func: Function, blocks: list[BasicBlock]) -> None:
    for block in blocks:
        for inst in block.instructions:
            inst.drop_all_references()
            if isinstance(inst, Phi):
                inst.incoming_blocks = []
            block.remove(inst)
        func.blocks.remove(block)


# ---------------------------------------------------------------------------
# Partial unrolling (unroll-and-SLP)
# ---------------------------------------------------------------------------


def partial_unroll(func: Function, loop: CountedLoopInfo, factor: int
                   ) -> Optional[BasicBlock]:
    """Split ``loop`` into a ``factor``-wide main loop + scalar epilogue.

    The original loop is kept *unchanged* as the epilogue: only its
    phis' entry edges are rewired to come from the new main header with
    the main loop's exit values, so a zero-trip or remainder run falls
    through correctly.  Returns the new main header, or None when the
    predicate/step combination is unsupported.
    """
    if factor < 2:
        return None
    step = loop.step
    if loop.predicate in ("slt", "sle"):
        if step <= 0:
            return None
    elif loop.predicate in ("sgt", "sge"):
        if step >= 0:
            return None
    else:
        return None

    iv_ty = loop.iv.type
    main_header = func.add_block(func.unique_name("main.header"))
    main_body = func.add_block(func.unique_name("main.body"))
    # position the main loop where the original loop sat
    func.blocks.remove(main_header)
    func.blocks.remove(main_body)
    pos = func.blocks.index(loop.header)
    func.blocks.insert(pos, main_body)
    func.blocks.insert(pos, main_header)

    # main header: phis, the guard on the *last* iteration of the batch
    jm = Phi(iv_ty, func.unique_name(loop.iv.name or "iv"))
    main_header.append(jm)
    acc_phis: list[Phi] = []
    for acc in loop.accumulators:
        am = Phi(acc.phi.type, func.unique_name(acc.phi.name or "acc"))
        main_header.append(am)
        acc_phis.append(am)
    last = BinaryOperator(
        "add", jm, Constant(iv_ty, (factor - 1) * step),
        func.unique_name("last"),
    )
    main_header.append(last)
    guard = Cmp(
        "icmp", loop.predicate, last, loop.bound,
        func.unique_name("guard"),
    )
    main_header.append(guard)
    main_header.append(CondBr(guard, main_body, loop.header))

    # main body: factor copies of the original body at jm + k*step
    body_insts = [
        inst for inst in loop.body.instructions if not inst.is_terminator
    ]
    running: dict[int, Value] = {
        id(acc.phi): am for acc, am in zip(loop.accumulators, acc_phis)
    }
    for k in range(factor):
        vmap: dict[int, Value] = {}
        if k == 0:
            vmap[id(loop.iv)] = jm
        else:
            iv_k = BinaryOperator(
                "add", jm, Constant(iv_ty, k * step),
                func.unique_name(loop.iv.name or "iv"),
            )
            main_body.append(iv_k)
            vmap[id(loop.iv)] = iv_k
        for acc in loop.accumulators:
            vmap[id(acc.phi)] = running[id(acc.phi)]
        for inst in body_insts:
            clone = clone_instruction(inst, vmap)
            clone.name = (
                func.unique_name(inst.name) if inst.name else ""
            )
            main_body.append(clone)
            vmap[id(inst)] = clone
        for acc in loop.accumulators:
            running[id(acc.phi)] = vmap.get(id(acc.next), acc.next)
    jm_next = BinaryOperator(
        "add", jm, Constant(iv_ty, factor * step),
        func.unique_name((loop.iv.name or "iv") + ".next"),
    )
    main_body.append(jm_next)
    main_body.append(Br(main_header))

    jm.add_incoming(loop.init, loop.preheader)
    jm.add_incoming(jm_next, main_body)
    for acc, am in zip(loop.accumulators, acc_phis):
        am.add_incoming(acc.init, loop.preheader)
        am.add_incoming(running[id(acc.phi)], main_body)

    # the original loop becomes the epilogue: entry edges now come from
    # the main header, carrying the main loop's exit values
    _replace_incoming(loop.iv, loop.preheader, jm, main_header)
    for acc, am in zip(loop.accumulators, acc_phis):
        _replace_incoming(acc.phi, loop.preheader, am, main_header)
    loop.preheader.terminator.replace_successor(loop.header, main_header)
    return main_header


def _replace_incoming(phi: Phi, old_block: BasicBlock, new_value: Value,
                      new_block: BasicBlock) -> None:
    kept = phi.incoming()
    phi.drop_all_references()
    phi.incoming_blocks = []
    for value, pred in kept:
        if pred is old_block:
            phi.add_incoming(new_value, new_block)
        else:
            phi.add_incoming(value, pred)


# ---------------------------------------------------------------------------
# Cost gate
# ---------------------------------------------------------------------------

#: body instruction classes the packability walk may traverse
_PACKABLE_CLASSES = (
    BinaryOperator,
    UnaryOperator,
    Cmp,
    Select,
    GetElementPtr,
    Load,
)


def choose_unroll_factor(loop: CountedLoopInfo,
                         target: TargetCostModel) -> int:
    """Unroll factor from the target's vector width, or 0.

    The narrowest element type among the loop's stored values and
    commutative accumulators bounds the lane count; the factor is the
    largest power of two not exceeding it.
    """
    elements = set()
    for inst in loop.body:
        if isinstance(inst, Store):
            elements.add(inst.value.type)
    for acc in loop.accumulators:
        if _reduction_op(loop, acc) is not None:
            elements.add(acc.phi.type)
    elements = {ty for ty in elements if not ty.is_vector}
    if not elements:
        return 0
    lanes = min(target.max_lanes(ty) for ty in elements)
    factor = 1
    while factor * 2 <= lanes:
        factor *= 2
    return factor if factor >= 2 else 0


def _reduction_op(loop: CountedLoopInfo, acc) -> Optional[BinaryOperator]:
    """The accumulator's commutative update op, when it looks like a
    reduction the SLP reduction planner can take over."""
    nxt = acc.next
    if (isinstance(nxt, BinaryOperator) and nxt.is_commutative
            and nxt.parent is loop.body
            and not nxt.type.is_vector):
        return nxt
    return None


def _packable_ids(loop: CountedLoopInfo, factor: int) -> set[int]:
    """Body instructions expected to collapse into one vector op across
    the ``factor`` unrolled copies (an optimistic estimate; the SLP
    planner's per-tree cost model has the final word)."""
    scev = ScalarEvolution()
    packable: set[int] = set()

    # store groups whose per-iteration offsets tile the stride: grouped
    # by (base, iv coefficient, non-iv symbolic part, value type), they
    # pack when the constant offsets form a run as long as coeff*step
    groups: dict[tuple, list[tuple[int, Store]]] = {}
    for inst in loop.body:
        if not isinstance(inst, Store):
            continue
        pointer = scev.access_pointer(inst)
        if pointer is None:
            continue
        index = pointer.index
        coeff = index.terms.get(id(loop.iv), (None, 0))[1]
        rest = frozenset(
            (key, c) for key, (_, c) in index.terms.items()
            if key != id(loop.iv)
        )
        key = (id(pointer.base), coeff, rest, inst.value.type)
        groups.setdefault(key, []).append((index.offset, inst))
    for (_, coeff, _, _), entries in groups.items():
        period = coeff * loop.step
        if period <= 0:
            continue
        offsets = sorted(offset for offset, _ in entries)
        run = list(range(offsets[0], offsets[0] + period))
        if len(entries) == period and offsets == run:
            packable.update(id(inst) for _, inst in entries)

    # reduction chains hand their lanes to the reduction planner
    for acc in loop.accumulators:
        op = _reduction_op(loop, acc)
        if op is not None:
            packable.add(id(op))

    # pure value computations feeding packable work vectorize with it
    stack = [
        inst for inst in loop.body if id(inst) in packable
    ]
    while stack:
        inst = stack.pop()
        for operand in inst.operands:
            if not isinstance(operand, Instruction):
                continue
            if operand.parent is not loop.body:
                continue
            if id(operand) in packable:
                continue
            if isinstance(operand, _PACKABLE_CLASSES):
                packable.add(id(operand))
                stack.append(operand)
    return packable


def estimate_loop_vectorize(loop: CountedLoopInfo, factor: int,
                            target: TargetCostModel
                            ) -> tuple[int, int]:
    """(scalar, vector) cost estimates for ``factor`` iterations.

    Scalar: ``factor`` trips through header + body.  Vector: one trip
    through the main loop with packable work counted once, the rest
    ``factor`` times, plus per-accumulator horizontal-reduction
    overhead (log2(factor) shuffle+op steps and one extract).
    """
    cost = target.issue_cost
    body_insts = [
        inst for inst in loop.body.instructions if not inst.is_terminator
    ]
    header_cost = sum(cost(inst) for inst in loop.header.instructions)
    back_edge = target.desc.branch_cost
    scalar_total = factor * (
        header_cost + sum(cost(inst) for inst in body_insts) + back_edge
    )

    packable = _packable_ids(loop, factor)
    # main header: same phis/cmp/condbr plus the guard's extra add
    vector_total = header_cost + target.desc.scalar_alu_cost + back_edge
    for inst in body_insts:
        if id(inst) in packable:
            vector_total += cost(inst)
        else:
            vector_total += factor * cost(inst)
    steps = factor.bit_length() - 1
    for acc in loop.accumulators:
        op = _reduction_op(loop, acc)
        if op is not None:
            vector_total += steps * (
                target.desc.shuffle_cost
                + target.scalar_op_cost(op.opcode)
            ) + target.desc.extract_cost
    return scalar_total, vector_total


def plan_loop_vectorize(loop: CountedLoopInfo,
                        target: Optional[TargetCostModel] = None
                        ) -> tuple[int, str]:
    """(factor, reason): factor 0 means "stay scalar" and reason says why."""
    target = target if target is not None else TargetCostModel()
    if loop.predicate not in ("slt", "sle", "sgt", "sge"):
        return 0, f"unsupported exit predicate '{loop.predicate}'"
    descending = loop.predicate in ("sgt", "sge")
    if (loop.step < 0) != descending:
        return 0, "step direction does not match the exit predicate"
    factor = choose_unroll_factor(loop, target)
    if factor == 0:
        return 0, "no vectorizable stores or reductions in the loop body"
    scalar_cost, vector_cost = estimate_loop_vectorize(
        loop, factor, target
    )
    if vector_cost >= scalar_cost:
        return 0, (
            f"estimated vector cost {vector_cost} does not beat "
            f"{factor} scalar iterations ({scalar_cost})"
        )
    return factor, ""


# ---------------------------------------------------------------------------
# Driver + diagnostics
# ---------------------------------------------------------------------------


def run_unroll(func: Function, max_loops: int = 64, *,
               max_trip_count: Optional[int] = None,
               loop_vectorize: bool = False,
               target: Optional[TargetCostModel] = None) -> bool:
    """Unroll counted loops until none remain (or a budget).

    Constant-trip loops within ``max_trip_count`` (default
    ``MAX_TRIP_COUNT``) unroll fully.  With ``loop_vectorize``, the rest
    are partially unrolled by a target-derived factor behind a cost
    gate, leaving the original loop as a scalar epilogue.  Every loop
    left scalar gets a decline remark in the compile context, a
    ``loop.unroll.declined`` metric and a ``loop.unroll`` record.
    """
    cap = DEFAULT_MAX_TRIP_COUNT if max_trip_count is None else max_trip_count
    changed = False
    quiet: set[int] = set()     # headers produced by partial unrolling
    declined: set[int] = set()  # headers already diagnosed this run
    for _ in range(max_loops):
        progress = False
        for header in list(func.blocks):
            if id(header) in quiet or id(header) in declined:
                continue
            info = match_counted_loop(func, header)
            if info is None:
                continue
            if unroll_loop(func, info, max_trip=cap):
                changed = progress = True
                break
            # full unroll refused: symbolic bound or trip beyond the cap
            if loop_vectorize:
                factor, reason = plan_loop_vectorize(info, target)
                if factor:
                    main_header = partial_unroll(func, info, factor)
                    if main_header is not None:
                        quiet.add(id(main_header))
                        quiet.add(id(header))
                        _metrics.add("loop.unroll.partial", 1)
                        _records.emit(
                            "loop.unroll", event="partial",
                            reason=f"factor={factor}", header=header.name,
                        )
                        changed = progress = True
                        break
                    reason = "predicate/step shape unsupported by partial unrolling"
            elif info.is_constant:
                reason = (
                    f"constant trip count exceeds the unroll cap ({cap}); "
                    "raise --unroll-max-trip or enable --loop-vectorize"
                )
            else:
                reason = (
                    "symbolic trip count; full unrolling needs constant "
                    "bounds (enable --loop-vectorize)"
                )
            _decline(header, reason)
            declined.add(id(header))
        if not progress:
            break

    # loops the counted-loop matcher cannot even recognize
    for natural in find_natural_loops(func):
        if id(natural.header) in quiet or id(natural.header) in declined:
            continue
        if match_counted_loop(func, natural.header) is None:
            _decline(
                natural.header,
                "non-canonical loop shape (multi-block body, irregular "
                "induction variable, or loop values used outside)",
            )
            declined.add(id(natural.header))
    return changed


def _decline(header: BasicBlock, reason: str) -> None:
    diagnostics.current().note(
        "loop-unroll", f"not unrolling loop at {header.name}: {reason}",
        phase="transform",
        remediation=(
            "restructure the loop into the canonical counted shape, or "
            "compile with --loop-vectorize / a larger --unroll-max-trip"
        ),
        record="loop.unroll", counters={"loop.unroll.declined": 1},
        event="declined", reason=reason, header=header.name,
    )


__all__ = [
    "CountedLoop",
    "choose_unroll_factor",
    "estimate_loop_vectorize",
    "find_counted_loop",
    "MAX_TRIP_COUNT",
    "partial_unroll",
    "plan_loop_vectorize",
    "run_unroll",
    "unroll_loop",
]
