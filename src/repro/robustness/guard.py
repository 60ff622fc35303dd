"""Per-pass snapshot/rollback and the differential-execution oracle.

The guarded driver treats every pass as untrusted: every pass runs
against a snapshot of its input (:func:`repro.ir.cloning.clone_function`);
if the pass raises, or the IR verifier rejects its output, the snapshot
is restored in place and compilation continues with the remaining
passes — degrading toward the paper's scalar "O3" baseline instead of
crashing the compile.  Strict mode re-raises as a :class:`CompilerError`
subclass, preserving today's fail-fast behaviour for tests.  A snapshot
is only taken when the function differs from the one already held:
most passes change nothing, and a structural comparison
(:func:`repro.ir.cloning.matches_clone`) is cheaper than a clone.

The :class:`DifferentialOracle` closes the remaining gap: a pass can
produce *valid but wrong* IR that no verifier catches.  The oracle
interprets a scalar reference snapshot and the transformed function on
clones of one seeded :class:`~repro.interp.memory.MemoryImage`; any
output or array mismatch rolls the function back to the reference and
emits a miscompile diagnostic (the checker-based safety net
LLM-Vectorizer argues for, built from the interpreter this repo already
has).  When every seed passes, the oracle keeps the transformed runs so
the backend cross-check can reuse them instead of interpreting the same
final IR again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from ..ir.call import Call
from ..ir.cloning import (
    clone_function,
    discard_blocks,
    discard_body,
    matches_clone,
)
from ..ir.function import Function, Module
from ..ir.verifier import VerificationError, verify_function
from .diagnostics import (
    DiagnosticEngine,
    InvalidIRError,
    MiscompileError,
    PassCrashError,
    Severity,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..costmodel.tti import TargetCostModel
    from ..interp.differential import VerifiedRun
    from ..opt.passmanager import PipelineResult


class FunctionSnapshot:
    """A restorable deep copy of one function's body.

    ``restore`` swaps the cloned blocks *and arguments* back into the
    original :class:`Function` object, so every caller still holding a
    reference to the function sees the pre-pass state.  The discarded
    (possibly corrupt) body is unhooked from shared values best-effort.
    """

    def __init__(self, func: Function, clone: Optional[Function] = None):
        self.func = func
        self._clone = clone if clone is not None else clone_function(func)

    @property
    def live(self) -> bool:
        return self._clone is not None

    def restore(self) -> None:
        """Replace ``func``'s body with the snapshot, in place."""
        clone = self._require_clone()
        func = self.func
        old_blocks = func.blocks
        func.blocks = clone.blocks
        for block in func.blocks:
            block.parent = func
        func.arguments = clone.arguments
        for arg in func.arguments:
            arg.parent = func
        func._name_counts = dict(clone._name_counts)
        discard_blocks(old_blocks)
        self._clone = None

    def discard(self) -> None:
        """Throw the snapshot away, unhooking it from shared values."""
        if self._clone is None:
            return
        discard_body(self._clone)
        self._clone = None

    def reference(self) -> Function:
        """The snapshot as a standalone, interpretable function."""
        return self._require_clone()

    def _require_clone(self) -> Function:
        if self._clone is None:
            raise RuntimeError("snapshot already restored or discarded")
        return self._clone


@dataclass
class DifferentialOracle:
    """Compares a reference and a transformed function by execution.

    Both functions run on identically seeded random memory images; every
    observable (final array contents, return value) must agree for every
    seed.  ``args`` supplies runtime arguments (kernels typically take a
    base index ``i``).  ``arg_sets``, when given, pairs one argument set
    with each seed — a property-style sweep over both memory contents
    *and* runtime arguments (see
    :func:`repro.interp.differential.seeded_arg_sets`); a mismatch
    reports exactly which seed/argument set diverged.

    A passing :meth:`check` keeps one
    :class:`~repro.interp.differential.VerifiedRun` per seed in
    ``verified``; a failing one keeps none, so a rolled-back function
    never leaves a stale run behind.
    """

    module: Module
    args: Optional[dict[str, object]] = None
    seeds: tuple[int, ...] = (0,)
    float_tolerance: float = 1e-9
    target: Optional["TargetCostModel"] = None
    #: one argument set per seed; None = ``args`` for every seed
    arg_sets: Optional[tuple[dict, ...]] = None
    #: the transformed runs of the last passing :meth:`check`
    verified: tuple["VerifiedRun", ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _verified_function: Optional[Function] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def sweeping(module: Module, func: Function,
                 args: Optional[dict[str, object]] = None,
                 runs: int = 1, base_seed: int = 0,
                 target: Optional["TargetCostModel"] = None,
                 float_tolerance: float = 1e-9) -> "DifferentialOracle":
        """An oracle replaying ``runs`` seeded (memory, argument) pairs.

        Run 0 reproduces the historical single-replay check (base seed,
        given args); runs 1..N-1 draw fresh memory images and vary the
        integer arguments deterministically per seed."""
        from ..interp.differential import seeded_arg_sets

        runs = max(1, runs)
        return DifferentialOracle(
            module,
            args=args,
            seeds=tuple(base_seed + run for run in range(runs)),
            float_tolerance=float_tolerance,
            target=target,
            arg_sets=tuple(seeded_arg_sets(func, args, runs, base_seed)),
        )

    def check(self, reference: Function,
              transformed: Function) -> Optional[str]:
        """``None`` when equivalent, else a human-readable mismatch
        naming the seed (and argument set) that diverged."""
        # Imported lazily: repro.interp pulls in repro.opt at package
        # import time, which would cycle back into this module.
        from ..interp.differential import compare_runs, VerifiedRun

        self.verified, self._verified_function = (), None
        verified = []
        for run, seed in enumerate(self.seeds):
            args = self.args
            where = f"seed {seed}"
            if self.arg_sets is not None:
                args = self.arg_sets[run]
                where = f"run {run} (seed {seed}, args {args})"
            try:
                outcome = compare_runs(
                    (self.module, reference), (self.module, transformed),
                    args=args, seed=seed, target=self.target,
                    float_tolerance=self.float_tolerance,
                )
            except Exception as exc:
                # Corrupt-but-valid IR can crash the interpreter
                # (division by a swapped-in zero, runaway step limit);
                # execution failure counts as a mismatch.
                return f"{where}: execution failed: {exc}"
            if not outcome.equivalent:
                return f"{where}: {outcome.detail}"
            verified.append(VerifiedRun(
                args, seed, outcome.transformed,
                outcome.transformed_memory, outcome.image,
            ))
        self.verified, self._verified_function = tuple(verified), transformed
        return None

    def runs_for(self, func: Function,
                 target: Optional["TargetCostModel"]
                 ) -> tuple["VerifiedRun", ...]:
        """The kept runs a later interpreter check of ``func`` on
        ``target`` may take as its own: none unless ``func`` is the
        function the last passing :meth:`check` transformed and
        ``target`` is the oracle's, and none while ``func`` still calls
        another function, because a callee compiled after the check
        changes what ``func`` computes."""
        if (func is not self._verified_function
                or target is not self.target
                or any(isinstance(inst, Call)
                       for inst in func.instructions())):
            return ()
        return self.verified


@dataclass
class GuardPolicy:
    """How the guarded driver reacts to pass failures."""

    #: "guarded" recovers and continues; "strict" re-raises as a
    #: :class:`CompilerError` after restoring the snapshot
    mode: str = "guarded"
    #: run the IR verifier after every pass (catches corrupt IR even
    #: when the pass returned normally)
    verify_after_each: bool = True
    #: differential-execution oracle, or None to skip execution checks
    oracle: Optional[DifferentialOracle] = None
    #: the pass whose pre-state is the oracle's scalar reference
    oracle_before: str = "slp"
    #: "pre-slp" references the O3-optimized scalar snapshot (the
    #: paper's baseline); "input" references the pristine input function
    #: (also catches scalar-pass miscompiles)
    oracle_reference: str = "pre-slp"

    def __post_init__(self):
        if self.mode not in ("guarded", "strict"):
            raise ValueError(f"unknown guard mode {self.mode!r}")
        if self.oracle_reference not in ("pre-slp", "input"):
            raise ValueError(
                f"unknown oracle reference {self.oracle_reference!r}"
            )

    @property
    def strict(self) -> bool:
        return self.mode == "strict"


class PassGuard:
    """Pass-isolation engine one :class:`PassManager` run consults.

    Create one per ``run_function`` invocation: it accumulates the
    rollback record, the diagnostic stream, and the oracle's scalar
    reference snapshot for that function.
    """

    def __init__(self, policy: Optional[GuardPolicy] = None,
                 diagnostics: Optional[DiagnosticEngine] = None):
        self.policy = policy if policy is not None else GuardPolicy()
        self.diagnostics = (
            diagnostics if diagnostics is not None else DiagnosticEngine()
        )
        self.rolled_back: list[str] = []
        self._reference: Optional[FunctionSnapshot] = None
        #: pre-pass snapshot of the last pass that committed, kept as a
        #: recovery point for corruption the verifier cannot see; the
        #: next pass reuses it as its own snapshot when the function
        #: still matches it
        self._last_good: Optional[FunctionSnapshot] = None
        self._last_pass_name: str = ""

    # ------------------------------------------------------------------

    def run_pass(self, name: str, pass_fn: Callable[[Function], bool],
                 func: Function, result: "PipelineResult") -> bool:
        """Run one pass under snapshot protection; returns ``changed``."""
        from ..opt.passmanager import PassTiming

        policy = self.policy
        try:
            self._capture_reference(name, func)
            snapshot = self._pre_pass_snapshot(func)
        except Exception as exc:
            # The current IR is so corrupt it cannot even be cloned —
            # a previous pass damaged it in a way the verifier missed
            # (e.g. a clobbered type that trips constructor checks).
            snapshot = self._recover_corrupt_state(name, func, exc)
        start = time.perf_counter()
        changed = False
        error: Optional[Exception] = None
        try:
            changed = bool(pass_fn(func))
            if policy.verify_after_each:
                verify_function(func)
        except Exception as exc:  # guard boundary: contain everything
            error = exc
        elapsed = time.perf_counter() - start

        if error is None:
            # Retain the pre-pass state as the recovery point in case a
            # later snapshot fails on verifier-invisible corruption.
            if self._last_good is not snapshot:
                if self._last_good is not None:
                    self._last_good.discard()
                self._last_good = snapshot
            self._last_pass_name = name
            result.timings.append(PassTiming(name, elapsed, changed))
            return changed

        snapshot.restore()
        if snapshot is self._last_good:
            # The rollback consumed the recovery point; the restored
            # state is the same pre-pass state, so snapshot it again.
            self._last_good = FunctionSnapshot(func)
        self.rolled_back.append(name)
        result.timings.append(PassTiming(name, elapsed, False))
        is_verify = isinstance(error, VerificationError)
        self.diagnostics.emit(
            Severity.ERROR if policy.strict else Severity.WARNING,
            "rollback",
            f"{'invalid IR after' if is_verify else 'exception in'} pass: "
            f"{error}",
            function=func.name, pass_name=name,
            phase="verify" if is_verify else "transform",
            remediation=(
                "function restored to its pre-pass state; rerun with "
                "--strict to fail fast, or file the pass bug"
            ),
        )
        if policy.strict:
            error_cls = InvalidIRError if is_verify else PassCrashError
            raise error_cls(str(error), function=func.name,
                            pass_name=name) from error
        return False

    # ------------------------------------------------------------------

    def _pre_pass_snapshot(self, func: Function) -> FunctionSnapshot:
        """A snapshot of ``func`` as it is now: the last committed
        pass's snapshot when that pass left the function unchanged
        (compared structurally, whatever the pass returned), otherwise
        a fresh clone."""
        last = self._last_good
        if last is not None and last.live:
            try:
                unchanged = matches_clone(func, last.reference())
            except Exception:
                # Damaged beyond comparison: let the clone decide.
                unchanged = False
            if unchanged:
                return last
        return FunctionSnapshot(func)

    def _capture_reference(self, name: str, func: Function) -> None:
        policy = self.policy
        if policy.oracle is None:
            return
        if self._reference is None and policy.oracle_reference == "input":
            self._reference = FunctionSnapshot(func)
        if (name == policy.oracle_before
                and policy.oracle_reference == "pre-slp"):
            self._reference = FunctionSnapshot(func)

    def _recover_corrupt_state(self, name: str, func: Function,
                               exc: Exception) -> FunctionSnapshot:
        """Roll back to the last known-good state when the current IR
        cannot be snapshotted, then retry the snapshot for ``name``."""
        culprit = self._last_pass_name or name
        if self._last_good is None or not self._last_good.live:
            # No recovery point: the *input* function is broken, which
            # is a caller error, not a contained pass failure.
            raise InvalidIRError(
                f"function cannot be snapshotted: {exc}",
                function=func.name, pass_name=culprit,
            ) from exc
        self._last_good.restore()
        self._last_good = None
        self.rolled_back.append(culprit)
        self.diagnostics.emit(
            Severity.ERROR if self.policy.strict else Severity.WARNING,
            "rollback",
            f"IR too corrupt to snapshot before pass {name!r} ({exc}); "
            f"restored the state before pass {culprit!r}",
            function=func.name, pass_name=culprit, phase="verify",
            remediation=(
                "an earlier pass produced IR the verifier does not "
                "reject; file the pass bug"
            ),
        )
        if self.policy.strict:
            raise InvalidIRError(str(exc), function=func.name,
                                 pass_name=culprit) from exc
        self._capture_reference(name, func)
        return FunctionSnapshot(func)

    def finish(self) -> None:
        """Release retained snapshots once compilation (and the oracle)
        are done, unhooking their clones from shared use lists."""
        if self._last_good is not None:
            self._last_good.discard()
            self._last_good = None
        if self._reference is not None and self._reference.live:
            self._reference.discard()
            self._reference = None

    # ------------------------------------------------------------------

    def run_oracle(self, func: Function) -> bool:
        """Execute the differential oracle against the reference
        snapshot.  On mismatch, roll ``func`` back to the reference and
        record a miscompile diagnostic.  Returns True when a rollback
        happened (strict mode raises instead)."""
        oracle = self.policy.oracle
        if oracle is None or self._reference is None:
            return False
        if not self._reference.live:
            return False
        detail = oracle.check(self._reference.reference(), func)
        if detail is None:
            self._reference.discard()
            return False
        self.rolled_back.append("oracle")
        self.diagnostics.emit(
            Severity.ERROR if self.policy.strict else Severity.WARNING,
            "miscompile",
            f"scalar/vectorized outputs diverge ({detail}); "
            f"rolled back to the scalar "
            f"{'input' if self.policy.oracle_reference == 'input' else 'baseline'}",
            function=func.name, pass_name=self.policy.oracle_before,
            phase="oracle",
            remediation=(
                "the transformed function was discarded; inspect the "
                "rejected IR with --remarks and file the vectorizer bug"
            ),
        )
        # Swap the reference back in: callers keep scalar semantics.
        self._reference.restore()
        if self.policy.strict:
            raise MiscompileError(detail, function=func.name,
                                  pass_name=self.policy.oracle_before)
        return True


__all__ = [
    "DifferentialOracle",
    "FunctionSnapshot",
    "GuardPolicy",
    "PassGuard",
]
