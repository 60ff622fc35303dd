"""Differential validation of the compiled tier against the interpreter.

The compiled tier is *never* trusted: any result it serves must be
reproducible by running the same function on the interpreter with an
identically-seeded fresh memory image (or taken from the differential
oracle's run of the same final IR on that image).  Unlike the oracle's
tolerance-based comparison (`repro.interp.differential`), this check
is **exact**: return values must be equal bit-for-bit (NaN compares
equal to NaN, signed zeros must match sign), every memory buffer must
be element-wise identical, and the simulated-cycle accounting
(``cycles``, ``instructions_retired``, ``opcode_counts``) must agree
— the compiled tier reconstructs them from static tables and any
drift there means the tables are wrong.

Both sides raising is equivalent *when the exception class matches*
(e.g. both hit the step limit or both trap on division by zero); the
compiled tier executes whole blocks before checking, so error-path
*memory* is deliberately not compared (see docs/BACKEND.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..costmodel.tti import TargetCostModel
from ..interp.differential import seeded_arg_sets, VerifiedRun
from ..interp.interpreter import Interpreter
from ..interp.memory import MemoryImage
from ..ir.function import Function, Module
from .tiers import TieredExecutor


@dataclass
class CrossCheckResult:
    """Outcome of one compiled-vs-interpreter sweep."""

    ok: bool
    runs: int = 0
    compiled_runs: int = 0     #: runs actually served by the compiled tier
    fallbacks: int = 0
    mismatches: list[str] = field(default_factory=list)

    def render(self) -> str:
        if self.ok:
            return (f"backend cross-check ok: {self.runs} runs, "
                    f"{self.compiled_runs} compiled, "
                    f"{self.fallbacks} fallbacks")
        return "backend cross-check FAILED: " + "; ".join(
            self.mismatches[:3]
        )


def _scalars_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, float) and isinstance(b, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if a == 0.0 and b == 0.0:
            return math.copysign(1.0, a) == math.copysign(1.0, b)
        return a == b
    return type(a) is type(b) and a == b


def values_equal(a, b) -> bool:
    """Exact equality for interpreter-shaped values."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            return False
        return len(a) == len(b) and all(
            _scalars_equal(x, y) for x, y in zip(a, b)
        )
    return _scalars_equal(a, b)


def _memories_equal(a: MemoryImage, b: MemoryImage) -> Optional[str]:
    arrays_a, arrays_b = a.arrays(), b.arrays()
    if set(arrays_a) != set(arrays_b):
        return f"buffer sets differ: {set(arrays_a) ^ set(arrays_b)}"
    for name in sorted(arrays_a):
        va, vb = arrays_a[name], arrays_b[name]
        if len(va) != len(vb):
            return f"@{name} length {len(va)} != {len(vb)}"
        for i, (x, y) in enumerate(zip(va, vb)):
            if not _scalars_equal(x, y):
                return f"@{name}[{i}]: interp {x!r} != compiled {y!r}"
    return None


def _same_args(a: Optional[dict], b: Optional[dict]) -> bool:
    """Equal argument sets, value types included (``8 == 8.0`` is not
    the same run)."""
    if a is None or b is None:
        return a is b
    return a.keys() == b.keys() and all(
        type(a[name]) is type(b[name]) and a[name] == b[name] for name in a
    )


def cross_check(module: Module, func: Function,
                target: TargetCostModel,
                base_args: Optional[dict] = None,
                runs: int = 3, base_seed: int = 0,
                backend: str = "compiled",
                source: Optional[str] = None,
                verified: Sequence[VerifiedRun] = ()) -> CrossCheckResult:
    """Run ``func`` under both tiers on fresh seeded memories.

    Every argument sweep from :func:`seeded_arg_sets` executes twice —
    once interpreted, once through the requested backend — and the
    results, final memories, and cycle accounting must match exactly.

    ``verified`` holds interpreter runs of this same final IR on
    ``target`` that the differential oracle already made (see
    :meth:`repro.robustness.DifferentialOracle.runs_for`).  A run whose
    seed and arguments equal a sweep's is that sweep's interpreter
    side, and a clone of its seeded input feeds the backend; every
    other sweep interprets on its own.
    """
    outcome = CrossCheckResult(ok=True)
    if backend != "interp" and source is None:
        # emit once up front; per-run executors then share the source
        # (load_compiled memoizes by content hash)
        probe = TieredExecutor(module, MemoryImage(module), target,
                               backend=backend)
        source = probe.source
    by_seed = {run.seed: run for run in verified}
    for index, args in enumerate(
        seeded_arg_sets(func, base_args, runs, base_seed)
    ):
        seed = base_seed + index
        ref_err: Optional[BaseException] = None
        cmp_err: Optional[BaseException] = None
        ref_result = cmp_result = None
        shared = by_seed.get(seed)
        if shared is not None and _same_args(shared.args, args):
            ref_result, mem_ref = shared.result, shared.memory
            mem_cmp = shared.image.clone()
        else:
            mem_ref = MemoryImage(module)
            mem_ref.randomize(seed)
            mem_cmp = mem_ref.clone()
            try:
                ref_result = Interpreter(mem_ref, target).run(func, args)
            except Exception as exc:
                ref_err = exc
        executor = TieredExecutor(module, mem_cmp, target,
                                  backend=backend, source=source)
        tier_run = None
        try:
            tier_run = executor.run(func.name, args)
        except Exception as exc:
            cmp_err = exc

        outcome.runs += 1
        if tier_run is not None:
            if tier_run.tier == "compiled":
                outcome.compiled_runs += 1
            if tier_run.fallback:
                outcome.fallbacks += 1
            cmp_result = tier_run.result

        if ref_err is not None or cmp_err is not None:
            if (ref_err is None or cmp_err is None
                    or type(ref_err).__name__
                    != type(cmp_err).__name__):
                outcome.ok = False
                outcome.mismatches.append(
                    f"run {index}: interp raised {ref_err!r}, "
                    f"backend raised {cmp_err!r}"
                )
            continue

        if not values_equal(ref_result.return_value,
                            cmp_result.return_value):
            outcome.ok = False
            outcome.mismatches.append(
                f"run {index}: return {ref_result.return_value!r} "
                f"!= {cmp_result.return_value!r}"
            )
            continue
        if (ref_result.cycles != cmp_result.cycles
                or ref_result.instructions_retired
                != cmp_result.instructions_retired
                or ref_result.opcode_counts
                != cmp_result.opcode_counts):
            outcome.ok = False
            outcome.mismatches.append(
                f"run {index}: accounting diverged "
                f"(cycles {ref_result.cycles} vs {cmp_result.cycles}, "
                f"retired {ref_result.instructions_retired} vs "
                f"{cmp_result.instructions_retired})"
            )
            continue
        memory_diff = _memories_equal(mem_ref, mem_cmp)
        if memory_diff is not None:
            outcome.ok = False
            outcome.mismatches.append(f"run {index}: {memory_diff}")
    return outcome


__all__ = ["CrossCheckResult", "cross_check", "values_equal"]
