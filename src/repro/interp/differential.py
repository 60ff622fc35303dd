"""Differential testing and cycle measurement helpers.

Vectorization must be semantics-preserving: running the original and the
transformed function on identical memory images must produce identical
memory contents and return values.  These helpers package that check,
and the speedup measurement the performance experiments use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..costmodel.tti import TargetCostModel
from ..ir.function import Function, Module
from .interpreter import ExecutionResult, Interpreter
from .memory import floats_agree, MemoryImage

#: Builds (module, function) pairs; called once per configuration so each
#: gets a pristine copy of the kernel to transform.
KernelFactory = Callable[[], tuple[Module, Function]]


@dataclass
class DifferentialOutcome:
    """Result of comparing a reference run against a transformed run."""

    equivalent: bool
    reference: ExecutionResult
    transformed: ExecutionResult
    detail: str = ""
    #: the reference module's seeded image, never run on; both runs
    #: started from copies of it
    image: Optional[MemoryImage] = None
    #: the transformed run's final memory
    transformed_memory: Optional[MemoryImage] = None

    @property
    def speedup(self) -> float:
        if self.transformed.cycles == 0:
            return float("inf")
        return self.reference.cycles / self.transformed.cycles


@dataclass(frozen=True)
class VerifiedRun:
    """One seeded run of a transformed function that an oracle
    accepted, kept so a later check of the same final IR (the backend
    cross-check) can take it as its interpreter side instead of
    interpreting again."""

    args: Optional[dict[str, object]]
    seed: int
    result: ExecutionResult
    #: the run's final memory
    memory: MemoryImage
    #: the seeded input image, never run on; clone it before running
    image: MemoryImage


def seeded_arg_sets(func: Function,
                    base_args: Optional[dict[str, object]] = None,
                    runs: int = 1,
                    base_seed: int = 0,
                    index_range: int = 8) -> list[dict[str, object]]:
    """``runs`` argument sets for a property-style differential sweep.

    Set 0 is ``base_args`` verbatim (one run reproduces the historical
    single-replay behaviour); later sets vary every *integer* argument
    deterministically from the run's seed, keeping values inside
    ``[0, index_range)`` so kernel base indices stay within the arrays
    the catalog declares.  Float and non-numeric arguments are left
    untouched — varying them would change rounding behaviour, which is
    the cost model's business, not the oracle's.
    """
    base = dict(base_args or {})
    sets: list[dict[str, object]] = [base]
    for run in range(1, max(1, runs)):
        rng = random.Random(0x1517_0000 + base_seed * 8191 + run)
        varied = dict(base)
        for argument in func.arguments:
            value = varied.get(argument.name)
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            varied[argument.name] = rng.randrange(index_range)
        sets.append(varied)
    return sets


def run_on_fresh_memory(module: Module, func: Function,
                        args: Optional[dict[str, object]] = None,
                        seed: int = 0,
                        target: Optional[TargetCostModel] = None
                        ) -> tuple[ExecutionResult, MemoryImage]:
    """Execute ``func`` on a freshly randomized memory image."""
    memory = MemoryImage(module)
    memory.randomize(seed=seed)
    result = Interpreter(memory, target).run(func, args)
    return result, memory


def compare_runs(reference: tuple[Module, Function],
                 transformed: tuple[Module, Function],
                 args: Optional[dict[str, object]] = None,
                 seed: int = 0,
                 target: Optional[TargetCostModel] = None,
                 float_tolerance: float = 1e-9) -> DifferentialOutcome:
    """Run both functions on identical random inputs and compare every
    observable: final memory contents and the return value.

    The seed is drawn into one image, and each run gets a clone of it;
    a transformed function from another module object gets that
    module's own image, drawn from the same seed."""
    image = MemoryImage(reference[0])
    image.randomize(seed=seed)
    ref_memory = image.clone()
    if transformed[0] is reference[0]:
        new_memory = image.clone()
    else:
        new_memory = MemoryImage(transformed[0])
        new_memory.randomize(seed=seed)
    ref_result = Interpreter(ref_memory, target).run(reference[1], args)
    new_result = Interpreter(new_memory, target).run(transformed[1], args)

    detail = ""
    equivalent = True
    if not ref_memory.same_contents(new_memory, float_tolerance):
        equivalent = False
        detail = _first_memory_difference(ref_memory, new_memory,
                                          float_tolerance)
    elif not _values_equal(ref_result.return_value,
                           new_result.return_value, float_tolerance):
        equivalent = False
        detail = (
            f"return value {ref_result.return_value!r} != "
            f"{new_result.return_value!r}"
        )
    return DifferentialOutcome(equivalent, ref_result, new_result, detail,
                               image=image, transformed_memory=new_memory)


def _values_equal(a, b, tol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return floats_agree(a, b, tol)
    return a == b


def _first_memory_difference(a: MemoryImage, b: MemoryImage,
                             tol: float) -> str:
    arrays_a = a.arrays()
    arrays_b = b.arrays()
    for name in sorted(arrays_a):
        buf_a = arrays_a[name]
        buf_b = arrays_b.get(name, [])
        for index, (va, vb) in enumerate(zip(buf_a, buf_b)):
            if not _values_equal(va, vb, tol):
                return f"@{name}[{index}]: {va!r} != {vb!r}"
    return "memory images differ"


__all__ = [
    "compare_runs",
    "DifferentialOutcome",
    "KernelFactory",
    "run_on_fresh_memory",
    "seeded_arg_sets",
    "VerifiedRun",
]
