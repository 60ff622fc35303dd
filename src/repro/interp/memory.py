"""Memory image: runtime storage for a module's global arrays."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.function import Module
from ..ir.values import GlobalArray


@dataclass(frozen=True)
class Pointer:
    """A runtime pointer: a buffer plus an element offset."""

    name: str
    buffer: list
    offset: int

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.name, self.buffer, self.offset + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pointer @{self.name}+{self.offset}>"


class MemoryImage:
    """Named buffers backing a module's global arrays.

    Buffers hold Python ints/floats; element typing and wrap-around are
    the interpreter's job.  ``clone()`` supports differential testing:
    run the scalar and the vectorized function on identical images and
    compare the results.
    """

    def __init__(self, module: Optional[Module] = None):
        self._buffers: dict[str, list] = {}
        self._elem_is_float: dict[str, bool] = {}
        if module is not None:
            for array in module.globals.values():
                self.add_array(array)

    def add_array(self, array: GlobalArray) -> None:
        zero = 0.0 if array.element.is_float else 0
        self._buffers[array.name] = [zero] * array.count
        self._elem_is_float[array.name] = array.element.is_float

    def pointer_to(self, name: str, offset: int = 0) -> Pointer:
        return Pointer(name, self._buffers[name], offset)

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def get_array(self, name: str) -> list:
        return list(self._buffers[name])

    def set_array(self, name: str, values: Sequence) -> None:
        buffer = self._buffers[name]
        if len(values) > len(buffer):
            raise ValueError(
                f"@{name} holds {len(buffer)} elements, got {len(values)}"
            )
        cast = float if self._elem_is_float[name] else int
        for index, value in enumerate(values):
            buffer[index] = cast(value)

    def randomize(self, seed: int = 0, low: int = -100, high: int = 100
                  ) -> None:
        """Fill every buffer with deterministic pseudo-random data.

        Each element draws exactly what ``rng.uniform(low, high)`` (float
        buffers) or ``rng.randint(low, high)`` (int buffers) would, by
        applying their formulas directly, one comprehension per buffer.
        ``Random._randbelow`` is private, so a test pins the stream
        against the per-element calls.
        """
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        rng = random.Random(seed)
        draw_float, draw_below = rng.random, rng._randbelow
        width = high - low
        for name, buffer in self._buffers.items():
            # Slice assignment keeps the list objects that pointers and
            # bound compiled runners already hold.
            if self._elem_is_float[name]:
                buffer[:] = [low + width * draw_float() for _ in buffer]
            else:
                buffer[:] = [low + draw_below(width + 1) for _ in buffer]

    def clone(self) -> "MemoryImage":
        copy = MemoryImage()
        for name, buffer in self._buffers.items():
            copy._buffers[name] = list(buffer)
            copy._elem_is_float[name] = self._elem_is_float[name]
        return copy

    def same_contents(self, other: "MemoryImage",
                      float_tolerance: float = 1e-9) -> bool:
        """Buffer-by-buffer equality (floats by :func:`floats_agree`)."""
        if self._buffers.keys() != other._buffers.keys():
            return False
        for name, buffer in self._buffers.items():
            other_buffer = other._buffers[name]
            if len(buffer) != len(other_buffer):
                return False
            if buffer == other_buffer:
                continue
            if not self._elem_is_float[name]:
                return False
            for a, b in zip(buffer, other_buffer):
                if a != b and not floats_agree(a, b, float_tolerance):
                    return False
        return True

    def arrays(self) -> dict[str, list]:
        return {name: list(buf) for name, buf in self._buffers.items()}


def floats_agree(a: float, b: float, tolerance: float) -> bool:
    """The oracle's float equality: identical values agree, NaN only
    with NaN, an infinity only with the same infinity, and finite
    values within ``tolerance`` relative to the larger magnitude (at
    least 1.0)."""
    if a == b:
        return True
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
    return math.isnan(a) and math.isnan(b)


__all__ = ["floats_agree", "MemoryImage", "Pointer"]
