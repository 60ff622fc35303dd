"""Resource budgets for the vectorizer's super-linear search spaces.

The exhaustive-reorder ablation is ``(slots!)^(lanes-1)`` and deep
look-ahead grows exponentially with depth, so an adversarial kernel can
stall a compile — the same compile-time risk goSLP bounds with its ILP
time limit.  A :class:`Budget` caps the three resources that blow up
(look-ahead score evaluations, exhaustive-reorder assignments, and
per-function wall-clock); a :class:`BudgetMeter` tracks consumption for
one function and records a :class:`BudgetEvent` the first time each cap
is hit, so the pipeline can surface a remark instead of hanging.  The
meters are pure accounting: the SLP driver drains their events and
reports each exhausted kind once per function, as one diagnostics call
(remark, ``degrade`` record and counters together).

Exhaustion never aborts compilation: the reorderers degrade to the
greedy single-pass policy (look-ahead depth 0 behaviour), which is
always legal — just potentially slower code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Budget:
    """Resource caps for vectorizing one function; ``None`` = unlimited."""

    #: total look-ahead score evaluations across the whole function
    max_lookahead_evals: Optional[int] = None
    #: complete assignments the exhaustive reorderer may enumerate per
    #: multi-node (the greedy engine takes over beyond this)
    max_reorder_assignments: Optional[int] = None
    #: wall-clock seconds the SLP pass may spend on one function
    max_seconds: Optional[float] = None
    #: look-ahead score evaluations across *every* function of one
    #: compile job (module scope, shared via a :class:`ModuleMeter`)
    max_module_lookahead_evals: Optional[int] = None
    #: wall-clock seconds of SLP work across the whole module
    max_module_seconds: Optional[float] = None
    #: candidates/subsets the plan selector may consider: *one shared
    #: selection budget* across every function of one compile job,
    #: metered by the :class:`ModuleMeter` the compile builds whenever
    #: this is set.  ``None`` leaves greedy selection unmetered and
    #: gives the exhaustive DFS its built-in default cap.
    max_select_subsets: Optional[int] = None

    @staticmethod
    def unlimited() -> "Budget":
        return Budget()

    @staticmethod
    def default() -> "Budget":
        """A generous cap that only trips on pathological inputs."""
        return Budget(max_lookahead_evals=1_000_000,
                      max_reorder_assignments=20_000,
                      max_seconds=30.0)

    @staticmethod
    def service_default() -> "Budget":
        """Per-job caps for batch/server workloads: the per-function
        defaults plus a module-scope meter, the admission unit of
        ``repro.service``."""
        return Budget(max_lookahead_evals=1_000_000,
                      max_reorder_assignments=20_000,
                      max_seconds=30.0,
                      max_module_lookahead_evals=4_000_000,
                      max_module_seconds=120.0)

    @staticmethod
    def reduced() -> "Budget":
        """The degradation ladder's *reduced* rung: tight caps a job
        retried after a timeout or repeated crashes compiles under —
        small enough that even an adversarial module finishes fast,
        while keeping vectorization on for the common shapes."""
        return Budget(max_lookahead_evals=100_000,
                      max_reorder_assignments=2_000,
                      max_seconds=5.0,
                      max_module_lookahead_evals=200_000,
                      max_module_seconds=10.0,
                      max_select_subsets=64)

    @property
    def has_module_caps(self) -> bool:
        return (self.max_module_lookahead_evals is not None
                or self.max_module_seconds is not None
                or self.max_select_subsets is not None)


@dataclass
class BudgetEvent:
    """First exhaustion of one budget dimension."""

    kind: str    #: "lookahead" | "reorder" | "wall-clock"
    detail: str


class _EventLog:
    """The first :class:`BudgetEvent` of each exhausted kind."""

    def __init__(self):
        self.events: list[BudgetEvent] = []

    @property
    def exhausted(self) -> bool:
        return bool(self.events)

    def _note(self, kind: str, detail: str) -> None:
        if all(event.kind != kind for event in self.events):
            self.events.append(BudgetEvent(kind, detail))


class ModuleMeter(_EventLog):
    """Whole-compile (module-scope) consumption, shared by the
    :class:`BudgetMeter` of every function in one compile job.

    This is the admission unit of batch/server workloads
    (``repro.service``): one poisoned or merely enormous module exhausts
    *its own* meter and degrades to greedy/scalar compilation, instead
    of starving every other job in the batch.
    """

    def __init__(self, budget: Optional[Budget] = None):
        super().__init__()
        self.budget = budget if budget is not None else Budget()
        self.lookahead_evals = 0
        self.select_subsets = 0
        self.functions_started = 0
        self._deadline: Optional[float] = None

    def start_function(self) -> None:
        """Called once per function; the first call arms the deadline."""
        self.functions_started += 1
        if (self._deadline is None
                and self.budget.max_module_seconds is not None):
            self._deadline = (time.perf_counter()
                              + self.budget.max_module_seconds)

    def charge_lookahead(self, count: int = 1) -> None:
        self.lookahead_evals += count

    def charge_select(self, count: int = 1) -> None:
        self.select_subsets += count

    def select_allowed(self) -> bool:
        """May the plan selector consider another candidate/subset
        anywhere in the module?  This is the one selection budget the
        selecting modes spend."""
        cap = self.budget.max_select_subsets
        if cap is not None and self.select_subsets >= cap:
            self._note(
                "module-select",
                f"module plan-selection budget of {cap} candidate "
                f"subsets exhausted after {self.select_subsets} across "
                f"{self.functions_started} function(s); remaining "
                "blocks keep the greedy first-fit selection",
            )
            return False
        return True

    def time_exceeded(self) -> bool:
        if self._deadline is None:
            return False
        if time.perf_counter() <= self._deadline:
            return False
        self._note(
            "module-wall-clock",
            f"module compile budget of {self.budget.max_module_seconds}s "
            "exceeded; remaining functions keep their scalar form",
        )
        return True

    def evals_exceeded(self) -> bool:
        cap = self.budget.max_module_lookahead_evals
        if cap is None or self.lookahead_evals < cap:
            return False
        self._note(
            "module-lookahead",
            f"module look-ahead budget of {cap} exhausted after "
            f"{self.lookahead_evals} evals across "
            f"{self.functions_started} function(s)",
        )
        return True

    def exceeded(self) -> bool:
        return self.time_exceeded() or self.evals_exceeded()


class BudgetMeter(_EventLog):
    """Per-function consumption tracker for one :class:`Budget`.

    When ``module`` is given, consumption is also charged against the
    shared :class:`ModuleMeter`, and any module-scope exhaustion stops
    this function's vectorization exactly like a per-function cap.
    """

    def __init__(self, budget: Optional[Budget] = None,
                 module: Optional[ModuleMeter] = None):
        super().__init__()
        if budget is None:
            budget = module.budget if module is not None else Budget()
        self.budget = budget
        self.module = module
        self.lookahead_evals = 0
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------

    def phase_meter(self) -> "BudgetMeter":
        """A meter for an analysis-only phase (candidate planning).

        Same caps and the already-armed wall-clock deadline, but its own
        counters, events and *no* module charging: planning runs before
        the apply phase and must not perturb its budget accounting — the
        apply phase's trips, remarks and module-admission behaviour stay
        exactly as if planning never happened.
        """
        clone = BudgetMeter(self.budget)
        clone._deadline = self._deadline
        return clone

    def start_function(self) -> None:
        """Arm the wall-clock deadline for a fresh function."""
        if self.budget.max_seconds is not None:
            self._deadline = time.perf_counter() + self.budget.max_seconds
        if self.module is not None:
            self.module.start_function()

    def charge_lookahead(self, count: int = 1) -> None:
        self.lookahead_evals += count
        if self.module is not None:
            self.module.charge_lookahead(count)

    # ------------------------------------------------------------------

    def time_exceeded(self) -> bool:
        if self._module_exceeded():
            return True
        if self._deadline is None:
            return False
        if time.perf_counter() <= self._deadline:
            return False
        self._note(
            "wall-clock",
            f"per-function compile budget of {self.budget.max_seconds}s "
            "exceeded; remaining vectorization work skipped",
        )
        return True

    def _module_exceeded(self) -> bool:
        """Module-scope exhaustion, surfaced as a local event too so the
        per-function report explains why this function stayed scalar."""
        if self.module is None or not self.module.exceeded():
            return False
        self._note(
            "module",
            "module-level compile budget exhausted; this function keeps "
            "its scalar form",
        )
        return True

    def lookahead_allowed(self) -> bool:
        """May another round of look-ahead scoring run?"""
        cap = self.budget.max_lookahead_evals
        if cap is not None and self.lookahead_evals >= cap:
            self._note(
                "lookahead",
                f"look-ahead evaluation budget of {cap} exhausted after "
                f"{self.lookahead_evals} evals; ties keep greedy order",
            )
            return False
        return not self.time_exceeded()

    def assignments_allowed(self, assignments: int,
                            evals_estimate: int) -> bool:
        """May the exhaustive reorderer enumerate ``assignments``
        complete operand assignments (≈ ``evals_estimate`` score
        evaluations)?  ``False`` means: use the greedy engine."""
        cap = self.budget.max_reorder_assignments
        if cap is not None and assignments > cap:
            self._note(
                "reorder",
                f"{assignments} exhaustive-reorder assignments exceed the "
                f"budget of {cap}; falling back to greedy reordering",
            )
            return False
        eval_cap = self.budget.max_lookahead_evals
        if eval_cap is not None and (
            self.lookahead_evals + evals_estimate > eval_cap
        ):
            self._note(
                "reorder",
                f"exhaustive reordering would need ~{evals_estimate} "
                f"look-ahead evals against a budget of {eval_cap}; "
                "falling back to greedy reordering",
            )
            return False
        return not self.time_exceeded()

    def charge_select(self, count: int = 1) -> None:
        """Selection is charged once, to the module meter's shared
        budget."""
        if self.module is not None:
            self.module.charge_select(count)

    def select_allowed(self) -> bool:
        """May the plan selector consider another candidate/subset?
        ``False`` means: keep what selection has so far (the greedy
        incumbent, or the legacy first-fit shape)."""
        if self.module is not None and not self.module.select_allowed():
            self._note(
                "module-select",
                "module-level plan-selection budget exhausted; this "
                "function keeps the greedy first-fit selection",
            )
            return False
        return not self.time_exceeded()


__all__ = ["Budget", "BudgetEvent", "BudgetMeter", "ModuleMeter"]
