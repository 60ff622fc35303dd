"""Pass manager: named function passes run in sequence.

The "O3" pipeline of this reproduction is a handful of scalar cleanups
(constant folding, CSE, algebraic simplification, DCE); the vectorizing
pipelines append the SLP pass and a final DCE.  Wall-clock time spent in
each pass is recorded so the Figure 14 compile-time experiment can report
per-configuration overheads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..ir.function import Function, Module
from ..obs.tracing import span
from ..robustness.diagnostics import compiling

#: A function pass: transforms ``func`` in place, returns True if it
#: changed anything.
FunctionPass = Callable[[Function], bool]


@dataclass
class PassTiming:
    name: str
    seconds: float
    changed: bool


@dataclass
class PipelineResult:
    """Timing and change summary for one pipeline run."""

    timings: list[PassTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def seconds_for(self, pass_name: str) -> float:
        return sum(t.seconds for t in self.timings if t.name == pass_name)


class PassManager:
    """Runs registered passes over functions or whole modules.

    With ``verify_each=True`` the IR verifier runs after every pass and
    failures name the offending pass — the standard way to localize a
    mis-compiling transformation.

    With a ``guard`` (a :class:`repro.robustness.PassGuard`) each pass
    runs under snapshot isolation: a pass that raises, or leaves IR the
    verifier rejects, is rolled back and recorded as a diagnostic
    instead of aborting the compile.  Without a guard the behaviour is
    exactly the historical fail-fast one.
    """

    def __init__(self, verify_each: bool = False, guard=None):
        self._passes: list[tuple[str, FunctionPass]] = []
        self.verify_each = verify_each
        self.guard = guard

    def add(self, name: str, pass_fn: FunctionPass) -> "PassManager":
        self._passes.append((name, pass_fn))
        return self

    @property
    def pass_names(self) -> list[str]:
        return [name for name, _ in self._passes]

    def wrap_passes(self, wrapper: Callable[[str, FunctionPass],
                                            FunctionPass]) -> None:
        """Replace every registered pass with ``wrapper(name, pass_fn)``
        (used by the fault-injection harness to instrument a pipeline)."""
        self._passes = [
            (name, wrapper(name, pass_fn)) for name, pass_fn in self._passes
        ]

    def run_function(self, func: Function,
                     result: Optional[PipelineResult] = None
                     ) -> PipelineResult:
        result = result if result is not None else PipelineResult()
        with compiling(func.name) as context:
            for name, pass_fn in self._passes:
                context.pass_name = name
                # One span per pass ("opt.<name>"); a no-op flag check
                # when tracing is disabled.
                with span(f"opt.{name}", function=func.name):
                    if self.guard is not None:
                        self.guard.run_pass(name, pass_fn, func, result)
                        continue
                    start = time.perf_counter()
                    changed = pass_fn(func)
                    elapsed = time.perf_counter() - start
                    result.timings.append(PassTiming(name, elapsed, changed))
                    if self.verify_each:
                        from ..ir.verifier import (VerificationError,
                                                   verify_function)

                        try:
                            verify_function(func)
                        except VerificationError as error:
                            raise VerificationError(
                                f"IR invalid after pass {name!r}: {error}"
                            ) from error
        return result

    def run_module(self, module: Module) -> PipelineResult:
        result = PipelineResult()
        for func in module.functions.values():
            self.run_function(func, result)
        return result


__all__ = ["FunctionPass", "PassManager", "PassTiming", "PipelineResult"]
