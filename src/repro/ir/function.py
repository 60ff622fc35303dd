"""Functions: named, typed containers of basic blocks."""

from __future__ import annotations

from typing import Iterator, Optional

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import Type, VOID
from .values import Argument, GlobalArray


class Function:
    """A function with formal arguments and one or more basic blocks.

    The kernels in this reproduction are straight-line, so most functions
    have a single ``entry`` block, but the representation supports many
    (the SLP pass simply processes blocks independently).
    """

    def __init__(self, name: str, arg_types: list[tuple[str, Type]],
                 return_type: Type = VOID):
        self.name = name
        self.return_type = return_type
        self.arguments: list[Argument] = []
        for arg_name, arg_type in arg_types:
            arg = Argument(arg_type, arg_name)
            arg.parent = self
            self.arguments.append(arg)
        self.blocks: list[BasicBlock] = []
        #: every name taken in this function (arguments, names handed
        #: out or reserved) → the next suffix to try for it as a hint
        self._name_counts: dict[str, int] = {
            arg.name: 1 for arg in self.arguments
        }

    # ---- blocks ----------------------------------------------------------

    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name or self.unique_name("bb"))
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function @{self.name} has no blocks")
        return self.blocks[0]

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block

    # ---- naming ----------------------------------------------------------

    def unique_name(self, hint: str = "t") -> str:
        """Produce a name no argument or earlier name of this function
        has: the hint itself, else the hint with the first free numeric
        suffix."""
        hint = hint or "t"
        taken = self._name_counts
        count = taken.get(hint, 0)
        name = hint
        if count:
            name = f"{hint}{count}"
            while name in taken:
                count += 1
                name = f"{hint}{count}"
            taken[name] = 1
        taken[hint] = count + 1
        return name

    def argument(self, name: str) -> Argument:
        """Fetch a formal argument by name."""
        for arg in self.arguments:
            if arg.name == name:
                return arg
        raise KeyError(f"no argument {name!r} in @{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{a.type} %{a.name}" for a in self.arguments)
        return f"<Function @{self.name}({args})>"


class Module:
    """A compilation unit: global arrays plus functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: dict[str, GlobalArray] = {}
        self.functions: dict[str, Function] = {}

    def add_global(self, array: GlobalArray) -> GlobalArray:
        if array.name in self.globals:
            raise ValueError(f"duplicate global @{array.name}")
        self.globals[array.name] = array
        return array

    def get_global(self, name: str) -> GlobalArray:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(f"no global @{name} in module {self.name}") from None

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function @{func.name}")
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function @{name} in module {self.name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.globals)} globals, "
            f"{len(self.functions)} functions>"
        )
