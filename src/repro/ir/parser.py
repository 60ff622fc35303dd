"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

The grammar is line-oriented: module header, global declarations, then
function definitions whose bodies are label lines and instruction lines.
Everything the printer emits parses back to an equivalent module, which
the tests exercise as a round-trip property.
"""

from __future__ import annotations

import re
from typing import Optional

from .basicblock import BasicBlock
from .builder import UndefVector
from .call import Call
from .controlflow import Br, CondBr, Phi
from .function import Function, Module
from .instructions import (
    BINARY_OPCODE_NAMES,
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
from .types import Type, VOID, parse_type
from .values import Constant, GlobalArray, Value, VectorConstant


class IRParseError(ValueError):
    """Raised on malformed textual IR, with the offending line number."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


_GLOBAL_RE = re.compile(
    r"@(?P<name>[\w.]+)\s*=\s*global\s*\[\s*(?P<count>\d+)\s*x\s*"
    r"(?P<elem>[\w<>\s*]+?)\s*\]$"
)
_DEFINE_RE = re.compile(
    r"define\s+(?P<ret>[\w<>\s*]+?)\s+@(?P<name>[\w.]+)\s*"
    r"\((?P<args>.*)\)\s*\{$"
)
_LABEL_RE = re.compile(r"(?P<name>[\w.]+):$")
_ASSIGN_RE = re.compile(r"%(?P<name>[\w.]+)\s*=\s*(?P<rest>.+)$")
_OPERAND_RE = re.compile(
    r"(?P<type><[^>]+>\*?|[\w]+\*?)\s+"
    r"(?P<ref>%[\w.]+|@[\w.]+|undef|<[^>]*>|"
    r"-?\d+(?:\.\d+(?:e[+-]?\d+)?)?)$"
)


def parse_module(text: str) -> Module:
    """Parse a full textual module."""
    return _Parser(text).parse()


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    """Parse a single ``define`` into ``module`` (a fresh one if None)."""
    module = module if module is not None else Module("anonymous")
    parser = _Parser(text, module=module)
    parser.parse(expect_header=False)
    if not module.functions:
        raise ValueError("no function definition found")
    return next(reversed(module.functions.values()))


class _Parser:
    def __init__(self, text: str, module: Optional[Module] = None):
        self.lines = text.splitlines()
        self.module = module if module is not None else Module("module")
        self.pos = 0

    # ---- driver ----------------------------------------------------------

    def parse(self, expect_header: bool = True) -> Module:
        while self.pos < len(self.lines):
            line = self._strip(self.lines[self.pos])
            self.pos += 1
            if not line:
                continue
            if line.startswith("module"):
                match = re.match(r'module\s+"(?P<name>[^"]*)"$', line)
                if not match:
                    self._fail("malformed module header")
                self.module.name = match.group("name")
            elif line.startswith("@"):
                self._parse_global(line)
            elif line.startswith("define"):
                self._parse_function(line)
            else:
                self._fail("unexpected top-level line")
        return self.module

    def _strip(self, line: str) -> str:
        line, _, _ = line.partition(";")
        return line.strip()

    def _fail(self, message: str) -> None:
        line_no = self.pos
        line = self.lines[line_no - 1] if 0 < line_no <= len(self.lines) else ""
        raise IRParseError(message, line_no, line)

    # ---- top-level pieces --------------------------------------------------

    def _parse_global(self, line: str) -> None:
        match = _GLOBAL_RE.match(line)
        if not match:
            self._fail("malformed global declaration")
        elem = parse_type(match.group("elem"))
        self.module.add_global(
            GlobalArray(match.group("name"), elem, int(match.group("count")))
        )

    def _parse_function(self, header: str) -> None:
        match = _DEFINE_RE.match(header)
        if not match:
            self._fail("malformed function header")
        arg_types: list[tuple[str, Type]] = []
        args_text = match.group("args").strip()
        if args_text:
            for piece in args_text.split(","):
                ty_text, _, name = piece.strip().rpartition("%")
                if not name:
                    self._fail("malformed argument list")
                arg_types.append((name.strip(), parse_type(ty_text)))
        func = Function(
            match.group("name"), arg_types, parse_type(match.group("ret"))
        )
        self.module.add_function(func)

        # Pass 1: collect the body lines and create all labelled blocks,
        # so branches can reference blocks that appear later.
        body: list[tuple[int, str]] = []
        terminated = False
        while self.pos < len(self.lines):
            line = self._strip(self.lines[self.pos])
            self.pos += 1
            if not line:
                continue
            if line == "}":
                terminated = True
                break
            body.append((self.pos, line))
        if not terminated:
            self._fail("unterminated function body")

        blocks: dict[str, BasicBlock] = {}
        for _, line in body:
            label = _LABEL_RE.match(line)
            if label:
                name = label.group("name")
                if name in blocks:
                    self._fail(f"duplicate label {name!r}")
                blocks[name] = func.add_block(name)
        if body and not _LABEL_RE.match(body[0][1]) and "entry" not in blocks:
            blocks["entry"] = func.add_block("entry")
            func.blocks.insert(0, func.blocks.pop())

        # Pass 2: parse instructions; phi incoming values may reference
        # later definitions (back-edges), so they are fixed up at the end.
        values: dict[str, Value] = {a.name: a for a in func.arguments}
        pending_phis: list[tuple[Phi, list[tuple[str, str, int]]]] = []
        block = blocks.get("entry")
        if block is None and func.blocks:
            block = func.blocks[0]
        end_pos = self.pos
        for line_no, line in body:
            self.pos = line_no  # for error messages
            label = _LABEL_RE.match(line)
            if label:
                block = blocks[label.group("name")]
                continue
            if block is None:
                self._fail("instruction before any block")
            self._parse_instruction(line, func, block, values, blocks,
                                    pending_phis)
        self._resolve_phis(pending_phis, values, blocks)
        self.pos = end_pos

    # ---- instructions --------------------------------------------------------

    def _parse_instruction(self, line: str, func: Function,
                           block: BasicBlock, values: dict[str, Value],
                           blocks: Optional[dict[str, BasicBlock]] = None,
                           pending_phis: Optional[list] = None) -> None:
        name = ""
        assign = _ASSIGN_RE.match(line)
        if assign:
            name = assign.group("name")
            line = assign.group("rest").strip()

        opcode, _, rest = line.partition(" ")
        rest = rest.strip()
        if opcode in ("br", "condbr", "phi"):
            inst = self._build_control(opcode, rest, values, blocks or {},
                                       pending_phis)
        else:
            inst = self._build(opcode, rest, values)
        if inst is None:
            self._fail(f"unknown instruction {opcode!r}")
        if name:
            if name in values:
                self._fail(f"redefinition of value %{name}")
            inst.name = name
            func.unique_name(name)  # reserve so later auto-names don't clash
            values[name] = inst
        block.append(inst)

    _PHI_EDGE_RE = re.compile(
        r"\[\s*(?P<value>%[\w.]+|@[\w.]+|-?\d+(?:\.\d+(?:e[+-]?\d+)?)?)"
        r"\s*,\s*%(?P<block>[\w.]+)\s*\]"
    )

    def _build_control(self, opcode: str, rest: str,
                       values: dict[str, Value],
                       blocks: dict[str, BasicBlock],
                       pending_phis: Optional[list]) -> Optional[Instruction]:
        if opcode == "br":
            match = re.match(r"label\s+%(?P<target>[\w.]+)$", rest)
            if not match:
                self._fail("malformed br")
            return Br(self._block(match.group("target"), blocks))
        if opcode == "condbr":
            match = re.match(
                r"(?P<cond>.+?),\s*label\s+%(?P<t>[\w.]+)\s*,\s*"
                r"label\s+%(?P<f>[\w.]+)$", rest
            )
            if not match:
                self._fail("malformed condbr")
            cond = self._operand(match.group("cond"), values)
            return CondBr(
                cond,
                self._block(match.group("t"), blocks),
                self._block(match.group("f"), blocks),
            )
        if opcode == "phi":
            ty_text, _, edges_text = rest.partition(" ")
            phi = Phi(parse_type(ty_text))
            edges = self._PHI_EDGE_RE.findall(edges_text)
            if not edges:
                self._fail("phi needs at least one incoming edge")
            if pending_phis is None:
                self._fail("phi outside function context")
            pending_phis.append((phi, [(v, b, self.pos) for v, b in edges]))
            return phi
        return None

    def _block(self, name: str, blocks: dict[str, BasicBlock]) -> BasicBlock:
        block = blocks.get(name)
        if block is None:
            self._fail(f"reference to unknown label {name!r}")
        return block

    def _resolve_phis(self, pending_phis: list,
                      values: dict[str, Value],
                      blocks: dict[str, BasicBlock]) -> None:
        for phi, edges in pending_phis:
            for value_text, block_name, line_no in edges:
                self.pos = line_no
                if value_text.startswith("%"):
                    value = values.get(value_text[1:])
                    if value is None:
                        self._fail(f"use of undefined value {value_text}")
                elif value_text.startswith("@"):
                    value = self.module.get_global(value_text[1:])
                else:
                    cast = float if phi.type.is_float else int
                    value = Constant(phi.type, cast(value_text))
                phi.add_incoming(value, self._block(block_name, blocks))

    def _build(self, opcode: str, rest: str,
               values: dict[str, Value]) -> Optional[Instruction]:
        if opcode in BINARY_OPCODE_NAMES:
            lhs, rhs = self._operands(rest, values, 2)
            return BinaryOperator(opcode, lhs, rhs)
        if opcode in ("fneg", "not"):
            (operand,) = self._operands(rest, values, 1)
            return UnaryOperator(opcode, operand)
        if opcode in ("icmp", "fcmp"):
            predicate, _, tail = rest.partition(" ")
            lhs, rhs = self._operands(tail, values, 2)
            return Cmp(opcode, predicate, lhs, rhs)
        if opcode == "select":
            cond, on_true, on_false = self._operands(rest, values, 3)
            return Select(cond, on_true, on_false)
        if opcode == "gep":
            base, index = self._operands(rest, values, 2)
            return GetElementPtr(base, index)
        if opcode == "load":
            ty_text, _, tail = rest.partition(",")
            (ptr,) = self._operands(tail, values, 1)
            return Load(parse_type(ty_text), ptr)
        if opcode == "store":
            value, ptr = self._operands(rest, values, 2)
            return Store(value, ptr)
        if opcode == "insertelement":
            vec, scalar, lane = self._operands(rest, values, 3)
            return InsertElement(vec, scalar, lane)
        if opcode == "extractelement":
            vec, lane = self._operands(rest, values, 2)
            return ExtractElement(vec, lane)
        if opcode == "shufflevector":
            body, _, mask_text = rest.partition("[")
            mask = tuple(
                int(m) for m in mask_text.rstrip("]").split(",") if m.strip()
            )
            a, b = self._operands(body.rstrip().rstrip(","), values, 2)
            return ShuffleVector(a, b, mask)
        if opcode == "splat":
            body, _, count_text = rest.rpartition(",")
            (scalar,) = self._operands(body, values, 1)
            return Splat(scalar, int(count_text.strip()))
        if opcode == "call":
            match = re.match(
                r"(?P<ty>[\w<>\s*]+?)\s+@(?P<callee>[\w.]+)"
                r"\((?P<args>.*)\)$", rest
            )
            if not match:
                self._fail("malformed call")
            callee = self.module.get_function(match.group("callee"))
            args_text = match.group("args").strip()
            arg_values = (
                [self._operand(piece, values)
                 for piece in _split_operands(args_text)]
                if args_text else []
            )
            return Call(callee, arg_values)
        if opcode == "ret":
            if rest == "void":
                return Ret()
            (value,) = self._operands(rest, values, 1)
            return Ret(value)
        return None

    def _operands(self, text: str, values: dict[str, Value],
                  count: int) -> list[Value]:
        pieces = _split_operands(text)
        if len(pieces) != count:
            self._fail(f"expected {count} operands, got {len(pieces)}")
        return [self._operand(piece, values) for piece in pieces]

    def _operand(self, text: str, values: dict[str, Value]) -> Value:
        match = _OPERAND_RE.match(text.strip())
        if not match:
            self._fail(f"malformed operand {text!r}")
        ty = parse_type(match.group("type"))
        ref = match.group("ref")
        if ref.startswith("%"):
            value = values.get(ref[1:])
            if value is None:
                self._fail(f"use of undefined value {ref}")
            if value.type is not ty:
                self._fail(
                    f"type mismatch for {ref}: declared {ty}, got {value.type}"
                )
            return value
        if ref.startswith("@"):
            return self.module.get_global(ref[1:])
        if ref == "undef":
            return UndefVector(ty)
        if ref.startswith("<"):
            elems = [e.strip() for e in ref[1:-1].split(",")]
            cast = float if ty.element.is_float else int
            return VectorConstant(ty, [cast(e) for e in elems])
        return Constant(ty, float(ref) if ty.is_float else int(ref))


def _split_operands(text: str) -> list[str]:
    """Split on commas that are not inside ``<...>`` vector types."""
    pieces: list[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        pieces.append(current.strip())
    return pieces


__all__ = ["IRParseError", "parse_function", "parse_module"]
