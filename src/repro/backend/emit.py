"""Flat-Python code generation for IR functions (the compiled tier).

The emitter walks a function's blocks and renders every instruction to
a line of plain Python, producing one self-contained module of source
text per IR module.  The generated code is *call-compatible* with the
tree-walking interpreter — same argument convention, same returned
values, same simulated-cycle accounting — but runs one to two orders
of magnitude faster because each IR instruction becomes a single
already-dispatched Python expression instead of a tree walk.

Vector SSA values are Python tuples of per-lane scalar expressions;
each lane renders to exactly the arithmetic the interpreter would
perform, so results are equal by construction.  Memory buffers stay
plain Python lists (the live ``MemoryImage`` buffers are mutated
directly through slice assignment), so the compiled tier is a drop-in
replacement with no state mirroring or synchronization.  Generated
modules import nothing beyond :mod:`repro`.

Constructs the emitter deliberately does not support raise
:class:`UnsupportedConstruct`; the tier policy falls back to the
interpreter with a structured remark.  Accounting is static: per-block
cycle/retired/opcode tables are baked into the generated module and
multiplied by runtime block-execution counts, which reproduces the
interpreter's ``ExecutionResult`` exactly.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from ..costmodel.tti import TargetCostModel
from ..ir.builder import UndefVector
from ..ir.call import Call
from ..ir.controlflow import Br, CondBr
from ..ir.function import Function, Module
from ..ir.instructions import (
    BinaryOperator,
    Cmp,
    ExtractElement,
    GetElementPtr,
    InsertElement,
    Load,
    Ret,
    Select,
    ShuffleVector,
    Splat,
    Store,
    UnaryOperator,
)
from ..ir.values import Constant, GlobalArray, Value, VectorConstant

#: bump when the shape of generated source changes; part of the cache
#: key of every job that stores generated source
EMIT_VERSION = 2

#: recursion guard mirrored from ``Interpreter.MAX_CALL_DEPTH``
MAX_CALL_DEPTH = 64


class UnsupportedConstruct(Exception):
    """The compiled tier cannot express a construct; fall back.

    ``construct`` is a stable machine-readable tag (used in remarks,
    metrics, and the fallback tests); ``detail`` is human-readable.
    """

    def __init__(self, construct: str, detail: str = ""):
        self.construct = construct
        self.detail = detail or construct
        super().__init__(f"{construct}: {self.detail}")


@dataclass
class EmittedModule:
    """One IR module rendered to flat Python source."""

    source: str
    functions: dict[str, dict]     #: per supported function: meta dict
    unsupported: dict[str, dict]   #: name -> {"construct", "detail"}
    n_blocks: int

    _sha: Optional[str] = field(default=None, repr=False)

    @property
    def sha256(self) -> str:
        if self._sha is None:
            self._sha = hashlib.sha256(
                self.source.encode("utf-8")
            ).hexdigest()
        return self._sha

    def supports(self, name: str) -> bool:
        return name in self.functions


# ---------------------------------------------------------------------------
# Scalar expression rendering (exactly `repro.ir.semantics`)
# ---------------------------------------------------------------------------


_FLOAT_DIRECT = {"fadd": "+", "fsub": "-", "fmul": "*"}
_INT_DIRECT = {"add": "+", "sub": "-", "mul": "*",
               "and": "&", "or": "|", "xor": "^"}
_CMP_OPS = {
    "eq": "==", "ne": "!=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    "oeq": "==", "one": "!=",
    "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
}

_INT_LIT = re.compile(r"^-?\d+$")
_NAME = re.compile(r"^[A-Za-z_]\w*$")


def _wrapped(expr: str, bits: int) -> str:
    """Two's-complement wrap of ``expr``, inline (``_wrap_int``)."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    return f"((({expr}) + {half}) & {mask}) - {half}"


def _scalar_int_binop(op: str, x: str, y: str, bits: int,
                      rhs_const: Optional[int]) -> str:
    """Render one integer binop exactly like ``eval_int_binop``.

    Results are always wrapped: wrapping is the identity on in-range
    values and reproduces the i1 representation quirks (``1 & 1``
    wraps to ``-1`` at one bit) without special cases.
    ``rhs_const`` is the shift amount when statically known.
    """
    direct = _INT_DIRECT.get(op)
    if direct is not None:
        return _wrapped(f"({x}) {direct} ({y})", bits)
    if op == "smin":
        return _wrapped(f"min({x}, {y})", bits)
    if op == "smax":
        return _wrapped(f"max({x}, {y})", bits)
    if op in ("shl", "lshr", "ashr") and rhs_const is not None:
        k = rhs_const
        if k == 0:
            # shift by zero still normalizes (wraps) the operand
            return _wrapped(f"({x})", bits)
        if 0 < k < bits:
            mask = (1 << bits) - 1
            if op == "shl":
                return _wrapped(f"({x}) << {k}", bits)
            if op == "ashr":
                return _wrapped(f"({x}) >> {k}", bits)
            # lshr of the masked value is already in signed range
            return f"(({x}) & {mask}) >> {k}"
    # dynamic shifts and division share the reference implementation
    return f"_ib({op!r}, {x}, {y}, {bits})"


def _scalar_float_binop(op: str, x: str, y: str) -> str:
    """Render one float binop exactly like ``eval_float_binop``."""
    direct = _FLOAT_DIRECT.get(op)
    if direct is not None:
        return f"({x}) {direct} ({y})"
    if op == "fdiv":
        return f"_fdiv({x}, {y})"
    if op == "fmin":
        return f"min({x}, {y})"
    return f"max({x}, {y})"


def _lane_shift_const(rhs: Value, index: int) -> Optional[int]:
    """Static per-lane shift amount of a vector shift, if known."""
    if isinstance(rhs, VectorConstant):
        return rhs.values[index]
    if isinstance(rhs, Splat) and isinstance(rhs.scalar, Constant):
        return rhs.scalar.value
    return None


def _float_lit(value: float) -> str:
    if value != value:
        return "_nan"
    if value == float("inf"):
        return "_inf"
    if value == float("-inf"):
        return "(-_inf)"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _int_lit(value: int) -> str:
    return f"({value})" if value < 0 else str(value)


def _kind_of(ty) -> tuple:
    """Compact runtime-representation tag for a type.

    ``("i", bits)`` / ``("f",)`` scalars, ``("iv", bits, n)`` /
    ``("fv", n)`` vectors, ``("p",)`` pointers, ``("v",)`` void.
    """
    if ty.is_vector:
        elem = ty.element
        if elem.is_float:
            return ("fv", ty.count)
        return ("iv", elem.bits, ty.count)
    if ty.is_pointer:
        return ("p",)
    if ty.is_float:
        return ("f",)
    if ty.is_integer:
        return ("i", ty.bits)
    return ("v",)


_PRELUDE = '''\
from repro.interp.interpreter import (
    DEFAULT_STEP_LIMIT as _DLIM,
    InterpreterError as _IErr,
)
from repro.ir.semantics import EvaluationError as _EErr, eval_int_binop as _ib

_inf = float("inf")
_nan = float("nan")


def _oob(name, off, width, size):
    raise _IErr("access @%s[%s:%s] out of bounds (size %s) in generated code"
                % (name, off, off + width, size))


def _steplimit(limit, fn):
    raise _IErr("step limit %s exceeded in @%s" % (limit, fn))


def _depthlimit(fn):
    raise _IErr("call depth limit exceeded calling @%s" % fn)


def _phientry(block):
    raise _IErr("phi in entry block %s" % block)


def _phiedge(block):
    raise KeyError("phi has no incoming edge from %s" % block)


def _fdiv(a, b):
    if b == 0.0:
        raise _EErr("fdiv by zero")
    return a / b
'''


# ---------------------------------------------------------------------------
# Function emitter
# ---------------------------------------------------------------------------


class _FunctionEmitter:
    """Renders one function; raises UnsupportedConstruct to bail out."""

    def __init__(self, parent: "_ModuleEmitter", func: Function,
                 block_base: int):
        self.me = parent
        self.func = func
        self.block_base = block_base
        self.lines: list[str] = []
        self.indent = 1
        self.counter = 0
        self.names: dict[int, str] = {}
        self.kinds: dict[int, tuple] = {}
        self.ptrs: dict[int, tuple[str, str]] = {}
        self.buffers: dict[str, tuple[str, str]] = {}
        self.callees: list[str] = []
        self.block_cycles: list[int] = []
        self.block_retired: list[int] = []
        self.block_ops: list[dict[str, int]] = []

    # ---- small helpers -------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str = "_v") -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    # ---- value references ---------------------------------------------

    def ref(self, value: Value) -> str:
        """Python expression for an SSA value (a name or a literal)."""
        if isinstance(value, Constant):
            if value.type.is_float:
                return _float_lit(value.value)
            return _int_lit(value.value)
        if isinstance(value, VectorConstant):
            return self._vector_constant(value)
        if isinstance(value, UndefVector):
            return self._undef_vector(value)
        if isinstance(value, GlobalArray):
            raise UnsupportedConstruct(
                "pointer-flow",
                f"@{value.name} used as a first-class value",
            )
        name = self.names.get(id(value))
        if name is None:
            if _kind_of(value.type)[0] == "p":
                raise UnsupportedConstruct(
                    "pointer-flow",
                    f"pointer {value.short_name()} escapes static "
                    f"tracking in @{self.func.name}",
                )
            raise UnsupportedConstruct(
                "value-flow",
                f"no rendering for {value.short_name()} "
                f"in @{self.func.name}",
            )
        return name

    def _vector_constant(self, vc: VectorConstant) -> str:
        render = _float_lit if vc.type.element.is_float else _int_lit
        return "(" + ", ".join(render(v) for v in vc.values) + ",)"

    def _undef_vector(self, uv: UndefVector) -> str:
        zero = "0.0" if uv.type.element.is_float else "0"
        return "(" + ", ".join([zero] * uv.type.count) + ",)"

    def lane(self, value: Value, index: int) -> str:
        """Per-lane scalar expression for a vector value."""
        if isinstance(value, VectorConstant):
            v = value.values[index]
            return (_float_lit(v) if value.type.element.is_float
                    else _int_lit(v))
        if isinstance(value, UndefVector):
            return "0.0" if value.type.element.is_float else "0"
        return f"{self.ref(value)}[{index}]"

    # ---- pointers and buffers ------------------------------------------

    def buffer(self, name: str) -> tuple[str, str]:
        entry = self.buffers.get(name)
        if entry is None:
            idx = len(self.buffers)
            entry = (f"_b{idx}", f"_l{idx}")
            self.buffers[name] = entry
        return entry

    def ptr_of(self, value: Value) -> tuple[str, str]:
        """(global name, offset expression) for a tracked pointer."""
        if isinstance(value, GlobalArray):
            self.buffer(value.name)
            return (value.name, "0")
        entry = self.ptrs.get(id(value))
        if entry is None:
            raise UnsupportedConstruct(
                "pointer-flow",
                f"pointer {value.short_name()} escapes static "
                f"tracking in @{self.func.name}",
            )
        return entry

    # ---- pre-pass: names, kinds, support checks -------------------------

    def _prepass(self) -> None:
        func = self.func
        for argument in func.arguments:
            kind = _kind_of(argument.type)
            if kind[0] == "p":
                raise UnsupportedConstruct(
                    "pointer-argument",
                    f"@{func.name} takes pointer parameter "
                    f"%{argument.name}",
                )
            self.names[id(argument)] = self.fresh("_a")
            self.kinds[id(argument)] = kind
        for block in func.blocks:
            for inst in block.instructions:
                kind = _kind_of(inst.type)
                if kind[0] == "p":
                    if not isinstance(inst, GetElementPtr):
                        raise UnsupportedConstruct(
                            "pointer-flow",
                            f"{inst.opcode} produces a pointer in "
                            f"@{func.name}",
                        )
                    continue
                if kind[0] == "v":
                    continue
                self.names[id(inst)] = self.fresh("_v")
                self.kinds[id(inst)] = kind

    # ---- instruction emission ------------------------------------------

    def _emit_binop(self, inst: BinaryOperator) -> None:
        name = self.names[id(inst)]
        kind = self.kinds[id(inst)]
        lhs, rhs = inst.lhs, inst.rhs
        op = inst.opcode
        if kind[0] == "i":
            rhs_const = rhs.value if isinstance(rhs, Constant) else None
            expr = _scalar_int_binop(
                op, self.ref(lhs), self.ref(rhs), kind[1], rhs_const
            )
        elif kind[0] == "f":
            expr = _scalar_float_binop(op, self.ref(lhs), self.ref(rhs))
        else:
            count = kind[2] if kind[0] == "iv" else kind[1]
            if kind[0] == "iv":
                bits = kind[1]
                lanes = [
                    _scalar_int_binop(
                        op, self.lane(lhs, i), self.lane(rhs, i),
                        bits, _lane_shift_const(rhs, i),
                    )
                    for i in range(count)
                ]
            else:
                lanes = [
                    _scalar_float_binop(op, self.lane(lhs, i),
                                        self.lane(rhs, i))
                    for i in range(count)
                ]
            expr = "(" + ", ".join(lanes) + ",)"
        self.line(f"{name} = {expr}")

    def _emit_unop(self, inst: UnaryOperator) -> None:
        name = self.names[id(inst)]
        kind = self.kinds[id(inst)]
        operand = inst.operands[0]
        if inst.opcode == "fneg":
            if kind[0] == "f":
                expr = f"-({self.ref(operand)})"
            else:
                lanes = [f"-({self.lane(operand, i)})"
                         for i in range(kind[1])]
                expr = "(" + ", ".join(lanes) + ",)"
        else:  # not
            if kind[0] == "i":
                expr = _wrapped(f"~({self.ref(operand)})", kind[1])
            else:
                bits, count = kind[1], kind[2]
                lanes = [_wrapped(f"~({self.lane(operand, i)})", bits)
                         for i in range(count)]
                expr = "(" + ", ".join(lanes) + ",)"
        self.line(f"{name} = {expr}")

    def _emit_cmp(self, inst: Cmp) -> None:
        name = self.names[id(inst)]
        kind = self.kinds[id(inst)]
        op = _CMP_OPS.get(inst.predicate)
        if op is None:
            raise UnsupportedConstruct(
                "predicate", f"cmp predicate {inst.predicate!r}"
            )
        lhs, rhs = inst.lhs, inst.rhs
        if kind[0] == "i":
            expr = (f"1 if ({self.ref(lhs)}) {op} ({self.ref(rhs)}) "
                    f"else 0")
        else:
            count = kind[2]
            lanes = [
                f"1 if ({self.lane(lhs, i)}) {op} "
                f"({self.lane(rhs, i)}) else 0"
                for i in range(count)
            ]
            expr = "(" + ", ".join(lanes) + ",)"
        self.line(f"{name} = {expr}")

    def _emit_select(self, inst: Select) -> None:
        name = self.names[id(inst)]
        kind = self.kinds[id(inst)]
        cond, on_true, on_false = inst.operands
        if kind[0] in ("i", "f"):
            expr = (f"({self.ref(on_true)}) if ({self.ref(cond)}) "
                    f"else ({self.ref(on_false)})")
        else:
            count = kind[2] if kind[0] == "iv" else kind[1]
            lanes = [
                f"({self.lane(on_true, i)}) if ({self.lane(cond, i)}) "
                f"else ({self.lane(on_false, i)})"
                for i in range(count)
            ]
            expr = "(" + ", ".join(lanes) + ",)"
        self.line(f"{name} = {expr}")

    def _emit_gep(self, inst: GetElementPtr) -> None:
        base_name, base_off = self.ptr_of(inst.base)
        idx = self.ref(inst.index)
        if _INT_LIT.match(base_off) and _INT_LIT.match(idx.strip("()")):
            off = str(int(base_off) + int(idx.strip("()")))
        elif base_off == "0" and _NAME.match(idx):
            off = idx
        else:
            off = self.fresh("_o")
            if base_off == "0":
                self.line(f"{off} = {idx}")
            else:
                self.line(f"{off} = ({base_off}) + ({idx})")
        self.ptrs[id(inst)] = (base_name, off)

    def _emit_load(self, inst: Load) -> None:
        name = self.names[id(inst)]
        gname, off = self.ptr_of(inst.ptr)
        buf, length = self.buffer(gname)
        if inst.is_vector_load:
            count = inst.type.count
            self.line(
                f"if ({off}) < 0 or ({off}) + {count} > {length}: "
                f"_oob({gname!r}, {off}, {count}, {length})"
            )
            self.line(f"{name} = tuple({buf}[({off}):({off}) + {count}])")
        else:
            self.line(
                f"if not 0 <= ({off}) < {length}: "
                f"_oob({gname!r}, {off}, 1, {length})"
            )
            self.line(f"{name} = {buf}[{off}]")

    def _emit_store(self, inst: Store) -> None:
        gname, off = self.ptr_of(inst.ptr)
        buf, length = self.buffer(gname)
        value = inst.value
        kind = _kind_of(value.type)
        if kind[0] in ("iv", "fv"):
            count = kind[2] if kind[0] == "iv" else kind[1]
            self.line(
                f"if ({off}) < 0 or ({off}) + {count} > {length}: "
                f"_oob({gname!r}, {off}, {count}, {length})"
            )
            self.line(f"{buf}[({off}):({off}) + {count}] = "
                      f"{self.ref(value)}")
        else:
            self.line(
                f"if not 0 <= ({off}) < {length}: "
                f"_oob({gname!r}, {off}, 1, {length})"
            )
            self.line(f"{buf}[{off}] = {self.ref(value)}")

    def _emit_insert(self, inst: InsertElement) -> None:
        name = self.names[id(inst)]
        kind = self.kinds[id(inst)]
        vec, scalar = inst.vec, inst.scalar
        lane = inst.lane
        count = kind[2] if kind[0] == "iv" else kind[1]
        lanes = [
            self.ref(scalar) if i == lane else self.lane(vec, i)
            for i in range(count)
        ]
        self.line(f"{name} = (" + ", ".join(lanes) + ",)")

    def _emit_extract(self, inst: ExtractElement) -> None:
        name = self.names[id(inst)]
        self.line(f"{name} = {self.lane(inst.vec, inst.lane)}")

    def _emit_shuffle(self, inst: ShuffleVector) -> None:
        name = self.names[id(inst)]
        a, b = inst.operands
        count = a.type.count
        lanes = [
            self.lane(a, m) if m < count else self.lane(b, m - count)
            for m in inst.mask
        ]
        self.line(f"{name} = (" + ", ".join(lanes) + ",)")

    def _emit_splat(self, inst: Splat) -> None:
        name = self.names[id(inst)]
        scalar = self.ref(inst.scalar)
        self.line(f"{name} = (({scalar}),) * {inst.type.count}")

    def _emit_call(self, inst: Call) -> None:
        callee = inst.callee
        self.callees.append(callee.name)
        py_name = self.me.py_names[callee.name]
        packed = ", ".join(
            f"{argument.name!r}: {self.ref(operand)}"
            for argument, operand in zip(callee.arguments, inst.operands)
        )
        tup = self.fresh("_t")
        self.line(
            f"if _ctl[0] >= {MAX_CALL_DEPTH}: "
            f"_depthlimit({callee.name!r})"
        )
        self.line("_ctl[0] += 1")
        self.line(f"{tup} = {py_name}({{{packed}}}, _mem, _ctl, _DLIM)")
        self.line("_ctl[0] -= 1")
        name = self.names.get(id(inst))
        if name is not None:
            self.line(f"{name} = {tup}[0]")
        self.line(f"_n += {tup}[1]")

    def _emit_nonterm(self, inst) -> None:
        if isinstance(inst, BinaryOperator):
            self._emit_binop(inst)
        elif isinstance(inst, UnaryOperator):
            self._emit_unop(inst)
        elif isinstance(inst, Cmp):
            self._emit_cmp(inst)
        elif isinstance(inst, Select):
            self._emit_select(inst)
        elif isinstance(inst, GetElementPtr):
            self._emit_gep(inst)
        elif isinstance(inst, Load):
            self._emit_load(inst)
        elif isinstance(inst, Store):
            self._emit_store(inst)
        elif isinstance(inst, InsertElement):
            self._emit_insert(inst)
        elif isinstance(inst, ExtractElement):
            self._emit_extract(inst)
        elif isinstance(inst, ShuffleVector):
            self._emit_shuffle(inst)
        elif isinstance(inst, Splat):
            self._emit_splat(inst)
        elif isinstance(inst, Call):
            self._emit_call(inst)
        else:
            raise UnsupportedConstruct(
                "opcode", f"cannot render {inst.opcode}"
            )

    # ---- blocks ---------------------------------------------------------

    def _emit_phis(self, phis: list, block_index: dict,
                   is_entry: bool, block_name: str) -> None:
        # union of predecessors in first-appearance order
        preds: list = []
        seen: set[int] = set()
        for phi in phis:
            for _, pred in phi.incoming():
                if id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        first = True
        if is_entry:
            self.line(f"if _prev == -1: _phientry({block_name!r})")
            first = False
        for pred in preds:
            keyword = "if" if first else "elif"
            first = False
            self.line(f"{keyword} _prev == {block_index[id(pred)]}:")
            self.indent += 1
            targets = ", ".join(self.names[id(phi)] for phi in phis)
            values = ", ".join(
                self.ref(phi.incoming_for(pred)) for phi in phis
            )
            self.line(f"{targets} = {values}")
            self.indent -= 1
        self.line("else:")
        self.indent += 1
        self.line(f"_phiedge({block_name!r})")
        self.indent -= 1

    def _emit_terminator(self, inst, local_index: int,
                         block_index: dict) -> None:
        if isinstance(inst, Ret):
            if inst.return_value is None:
                self.line("return (None, _n)")
            else:
                self.line(f"return ({self.ref(inst.return_value)}, _n)")
            return
        if isinstance(inst, Br):
            self.line(f"_prev = {local_index}")
            self.line(f"_blk = {block_index[id(inst.target)]}")
            self.line("continue")
            return
        if isinstance(inst, CondBr):
            true_ix = block_index[id(inst.on_true)]
            false_ix = block_index[id(inst.on_false)]
            self.line(f"_prev = {local_index}")
            self.line(
                f"_blk = {true_ix} if ({self.ref(inst.condition)}) "
                f"else {false_ix}"
            )
            self.line("continue")
            return
        raise UnsupportedConstruct(
            "opcode", f"unknown terminator {inst.opcode}"
        )

    def _emit_block(self, block, local_index: int,
                    block_index: dict) -> None:
        target = self.me.target
        instructions = block.instructions
        phis = block.phis()
        body = instructions[len(phis):]
        cycles = sum(target.issue_cost(i) for i in instructions)
        ops: dict[str, int] = {}
        for inst in instructions:
            ops[inst.opcode] = ops.get(inst.opcode, 0) + 1
        self.block_cycles.append(cycles)
        self.block_retired.append(len(instructions))
        self.block_ops.append(ops)

        gi = self.block_base + local_index
        self.line(f"_ctl[1][{gi}] += 1")
        if phis:
            self._emit_phis(phis, block_index,
                            is_entry=(local_index == 0),
                            block_name=block.name)

        # The interpreter checks the step limit as each non-phi
        # instruction retires and merges a callee's counts at its call
        # site.  Charging whole segments (split at calls) and checking
        # once per segment raises in exactly the same executions: the
        # count is monotone and a segment's end value equals the
        # interpreter's value at its last in-segment check.
        segments: list[list] = [[]]
        for inst in body:
            segments[-1].append(inst)
            if isinstance(inst, Call):
                segments.append([])
        if not segments[-1]:
            segments.pop()
        pending = len(phis)
        for segment in segments:
            pending += len(segment)
            self.line(f"_n += {pending}")
            self.line(f"if _n > _limit: "
                      f"_steplimit(_limit, {self.func.name!r})")
            pending = 0
            for inst in segment:
                if inst is body[-1] and inst.is_terminator:
                    self._emit_terminator(inst, local_index, block_index)
                else:
                    self._emit_nonterm(inst)
        if pending:
            # phi-only block: the interpreter never checks here
            self.line(f"_n += {pending}")
        if not body or not body[-1].is_terminator:
            self.line("return (None, _n)")

    # ---- top level -------------------------------------------------------

    def emit(self) -> dict:
        func = self.func
        self._prepass()
        blocks = func.blocks
        block_index = {id(b): i for i, b in enumerate(blocks)}
        single = (
            len(blocks) == 1
            and not blocks[0].phis()
            and (blocks[0].terminator is None
                 or isinstance(blocks[0].terminator, Ret))
        )
        body_lines = self.lines
        self.lines = []
        if single:
            self._emit_block(blocks[0], 0, block_index)
        else:
            self.line("_blk = 0")
            self.line("_prev = -1")
            self.line("while True:")
            self.indent += 1
            for i, block in enumerate(blocks):
                keyword = "if" if i == 0 else "elif"
                self.line(f"{keyword} _blk == {i}:")
                self.indent += 1
                self._emit_block(block, i, block_index)
                self.indent -= 1
            self.indent -= 1
        code = self.lines
        self.lines = body_lines

        prolog: list[str] = []
        arg_kinds: list = []
        for argument in func.arguments:
            name = self.names[id(argument)]
            prolog.append(f"    {name} = _args[{argument.name!r}]")
            arg_kinds.append((argument.name,
                              self.kinds[id(argument)]))
        for gname, (buf, length) in self.buffers.items():
            prolog.append(f"    {buf} = _mem[{gname!r}]")
            prolog.append(f"    {length} = len({buf})")
        prolog.append("    _n = 0")

        py_name = self.me.py_names[func.name]
        header = f"def {py_name}(_args, _mem, _ctl, _limit):"
        self.rendered = "\n".join([header] + prolog + code) + "\n"

        return {
            "py": py_name,
            "args": arg_kinds,
            "ret": _kind_of(func.return_type),
            "buffers": sorted(self.buffers),
            "callees": sorted(set(self.callees)),
            "n_blocks": len(blocks),
            "block_base": self.block_base,
        }


# ---------------------------------------------------------------------------
# Module emitter
# ---------------------------------------------------------------------------


class _ModuleEmitter:
    def __init__(self, module: Module, target: TargetCostModel):
        self.module = module
        self.target = target
        self.py_names: dict[str, str] = {}
        self.block_cycles: list[int] = []
        self.block_retired: list[int] = []
        self.block_ops: list[dict[str, int]] = []

    def emit(self) -> EmittedModule:
        for i, name in enumerate(self.module.functions):
            safe = re.sub(r"\W", "_", name)
            self.py_names[name] = f"_fn{i}_{safe}"

        metas: dict[str, dict] = {}
        bodies: dict[str, str] = {}
        unsupported: dict[str, dict] = {}
        for name, func in self.module.functions.items():
            emitter = _FunctionEmitter(self, func,
                                       len(self.block_cycles))
            try:
                meta = emitter.emit()
            except UnsupportedConstruct as exc:
                unsupported[name] = {
                    "construct": exc.construct,
                    "detail": exc.detail,
                }
                # the function's table rows were collected locally and
                # are dropped with it; the next function re-bases on
                # the unchanged module tables
                continue
            self.block_cycles.extend(emitter.block_cycles)
            self.block_retired.extend(emitter.block_retired)
            self.block_ops.extend(emitter.block_ops)
            metas[name] = meta
            bodies[name] = emitter.rendered

        # a caller of an unsupported callee is itself unsupported
        changed = True
        while changed:
            changed = False
            for name in list(metas):
                bad = [c for c in metas[name]["callees"]
                       if c in unsupported]
                if bad:
                    unsupported[name] = {
                        "construct": "callee-unsupported",
                        "detail": (f"@{name} calls @{bad[0]}: "
                                   + unsupported[bad[0]]["construct"]),
                    }
                    del metas[name]
                    del bodies[name]
                    changed = True

        # transitive buffer sets so the runtime can prefetch
        def closure(name: str, seen: set[str]) -> set[str]:
            if name in seen or name not in metas:
                return set()
            seen.add(name)
            result = set(metas[name]["buffers"])
            for callee in metas[name]["callees"]:
                result |= closure(callee, seen)
            return result

        for name, meta in metas.items():
            meta["buffers"] = sorted(closure(name, set()))

        parts = [
            f'"""Generated by repro.backend.emit v{EMIT_VERSION}. '
            f'Do not edit."""',
            "",
            _PRELUDE,
        ]
        for name in metas:
            parts.append(bodies[name])
        parts.append(f"_BLOCK_CYCLES = {tuple(self.block_cycles)!r}")
        parts.append(f"_BLOCK_RETIRED = {tuple(self.block_retired)!r}")
        parts.append(f"_BLOCK_OPS = {tuple(self.block_ops)!r}")
        meta_doc = {
            "version": EMIT_VERSION,
            "n_blocks": len(self.block_cycles),
            "functions": metas,
            "unsupported": unsupported,
        }
        parts.append(f"_META = {meta_doc!r}")
        parts.append("")
        source = "\n".join(parts)
        return EmittedModule(
            source=source,
            functions=metas,
            unsupported=unsupported,
            n_blocks=len(self.block_cycles),
        )


def emit_module(module: Module, target: TargetCostModel) -> EmittedModule:
    """Render ``module`` to flat Python source.

    Unsupported functions are recorded in ``EmittedModule.unsupported``
    rather than raising; the tier policy decides whether that means
    fallback (``auto``) or an error (``compiled``).
    """
    return _ModuleEmitter(module, target).emit()


__all__ = [
    "EMIT_VERSION",
    "EmittedModule",
    "MAX_CALL_DEPTH",
    "UnsupportedConstruct",
    "emit_module",
]
