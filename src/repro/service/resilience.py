"""Service resilience: retry/backoff, one degradation ladder, breaker.

A long-lived batch service sees failures hourly that a one-shot CLI can
pretend are fatal: a worker process killed mid-job, a hung compile, a
disk-cache write hitting a full disk.  This module is the policy layer
the pool and the service share to survive them:

* **error classification** — every failure carries a structured
  :class:`JobError` whose ``kind`` is either *retryable* (worker
  killed, pool broken, deadline expired, transient cache I/O) or
  *permanent* (a compile diagnostic: retrying cannot change the
  outcome).
* **:class:`RetryPolicy`** — a per-job retry budget with deterministic
  jittered exponential backoff: the delay for attempt *n* of job *key*
  is a pure function of ``(seed, key, n)``, so a chaos run replays
  byte-identically.  A deadline expiry consumes
  :attr:`RetryPolicy.timeout_attempt_cost` units of the budget — the
  "shrunken budget" timed-out jobs retry under.
* **the degradation ladder** — ``full → reduced → scalar → refuse``:
  *reduced* strips the exhaustive/module-exhaustive selection modes
  and installs tight budgets, *scalar* disables vectorization
  entirely, *refuse* is the floor.  A rung counts only if it changes
  the compile.  Every way the service sheds a job — the admission wall
  budget, an open breaker, spent retries, a backend failure — is one
  call of :func:`step_down`, which names the job's next dispatch.
* **:class:`CircuitBreaker`** — per config-shard: after N consecutive
  full-fidelity failures the shard trips OPEN and subsequent jobs are
  routed straight down the ladder; after a few shed jobs one HALF-OPEN
  probe runs at full fidelity and its outcome closes or re-opens the
  breaker.

Everything here is pure data + deterministic arithmetic — no I/O, no
clocks — which is what lets the chaos suite assert exact replay.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from ..robustness.budget import Budget

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import CompileJob

# ---------------------------------------------------------------------------
# Error classification
# ---------------------------------------------------------------------------

#: a pass/front-end diagnostic: deterministic, retrying cannot help
ERROR_COMPILE = "compile"
#: the worker process died while (or before) running this job
ERROR_WORKER_CRASHED = "worker-crashed"
#: the pool broke while this job was in flight (collateral of another
#: job's worker dying); the job itself is blameless
ERROR_WORKER_LOST = "worker-lost"
#: the job exceeded its per-job wall-clock deadline
ERROR_TIMEOUT = "timeout"
#: the executor failed to round-trip the job (unpicklable result, ...)
ERROR_POOL = "pool"
#: the pool broke repeatedly and could not be rebuilt
ERROR_POOL_IRRECOVERABLE = "pool-irrecoverable"
#: transient cache I/O (a corrupt read or failed write surfaced here)
ERROR_CACHE_IO = "cache-io"
#: the degradation ladder refused the job: no rung below changes it
ERROR_REFUSED = "refused"
#: the compiled execution tier disagreed with the interpreter on a
#: differential sweep — an emitter bug, deterministic, never retried
ERROR_BACKEND_MISMATCH = "backend-mismatch"
#: ``backend="compiled"`` was requested for a construct the emitter
#: deliberately refuses (pointer flow, exec hooks, ...); deterministic
ERROR_BACKEND_UNSUPPORTED = "backend-unsupported"

#: permanent backend failures the ladder handles specially: instead of
#: retrying (useless — deterministic) or stepping down, the job re-runs
#: with ``backend="interp"`` at the same fidelity rung
BACKEND_SHED_KINDS = frozenset({
    ERROR_BACKEND_MISMATCH,
    ERROR_BACKEND_UNSUPPORTED,
})

#: kinds worth retrying: the failure is environmental, not the job's
RETRYABLE_KINDS = frozenset({
    ERROR_WORKER_CRASHED,
    ERROR_WORKER_LOST,
    ERROR_TIMEOUT,
    ERROR_CACHE_IO,
})


def is_retryable(kind: str) -> bool:
    return kind in RETRYABLE_KINDS


@dataclass
class JobError:
    """One structured, picklable job failure — enough to attribute a
    failure in a batch report without re-running anything."""

    kind: str                       #: one of the ``ERROR_*`` constants
    message: str
    job_name: str = ""
    config_name: str = ""
    cache_key: str = ""
    functions: tuple[str, ...] = ()
    attempt: int = 0                #: 0-based attempt that failed
    traceback: str = ""             #: truncated worker traceback tail

    def render(self) -> str:
        where = [f"attempt {self.attempt + 1}"]
        if self.cache_key:
            where.append(f"key {self.cache_key[:12]}")
        if self.functions:
            where.append("fn " + ",".join(self.functions))
        tail = f" | {self.traceback}" if self.traceback else ""
        return (f"{self.kind} [{'; '.join(where)}]: "
                f"{self.message}{tail}")

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["functions"] = list(self.functions)
        data["retryable"] = is_retryable(self.kind)
        return data


# ---------------------------------------------------------------------------
# Retry / backoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry budget with deterministic jittered backoff."""

    #: retry-budget units per job; 0 disables retries entirely
    max_retries: int = 2
    backoff_base: float = 0.05      #: first-retry delay, seconds
    backoff_factor: float = 2.0     #: exponential growth per attempt
    backoff_cap: float = 2.0        #: upper bound on one delay
    #: jitter fraction: the delay is scaled into
    #: ``[1 - jitter, 1 + jitter]`` by a per-(key, attempt) hash
    jitter: float = 0.5
    seed: int = 0
    #: retry-budget units one deadline expiry consumes — a timed-out
    #: job retries under a *shrunken* budget, so a persistent hang
    #: exhausts its retries twice as fast as a crash
    timeout_attempt_cost: int = 2

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Delay before attempt ``attempt`` (1-based retries) of the
        job with cache key ``key``.  Pure: same inputs, same delay."""
        if attempt <= 0:
            return 0.0
        raw = min(self.backoff_cap,
                  self.backoff_base * self.backoff_factor ** (attempt - 1))
        if self.jitter <= 0.0:
            return raw
        unit = random.Random(f"{self.seed}:{key}:{attempt}").random()
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------

RUNG_FULL = 0       #: the job exactly as submitted
RUNG_REDUCED = 1    #: no exhaustive selection, tight budgets
RUNG_SCALAR = 2     #: vectorization disabled entirely
RUNG_REFUSE = 3     #: nothing left to shed

RUNG_NAMES = ("full", "reduced", "scalar", "refuse")

#: selection modes the *reduced* rung downgrades (the heavy-tailed
#: search spaces that make deadlines necessary in the first place)
_REDUCED_PLAN_SELECT = {"module-exhaustive": "module-greedy"}


def _merge_min_budget(current: Optional[Budget], cap: Budget) -> Budget:
    """Elementwise min of two budgets, treating ``None`` as unlimited."""
    if current is None:
        return cap
    merged = {}
    for f in dataclasses.fields(Budget):
        a = getattr(current, f.name)
        b = getattr(cap, f.name)
        merged[f.name] = b if a is None else a if b is None else min(a, b)
    return Budget(**merged)


def job_at_rung(job: "CompileJob", rung: int) -> "CompileJob":
    """``job`` rewritten for one ladder rung (identity at FULL, and for a
    job that does not vectorize: no rung below changes its compile)."""
    if rung <= RUNG_FULL or not job.config.enabled:
        return job
    if rung == RUNG_REDUCED:
        config = job.config
        select = _REDUCED_PLAN_SELECT.get(config.plan_select,
                                          config.plan_select)
        config = dataclasses.replace(
            config,
            plan_select=select,
            budget=_merge_min_budget(config.budget, Budget.reduced()),
        )
        return dataclasses.replace(job, config=config)
    if rung == RUNG_SCALAR:
        return dataclasses.replace(
            job, config=dataclasses.replace(job.config, enabled=False))
    raise ValueError(f"rung {rung} has no runnable job")


def next_rung(job: "CompileJob", rung: int) -> int:
    """The next ladder rung below ``rung`` that actually changes the
    job; rungs that would re-run the identical compile are skipped."""
    for candidate in range(max(rung, RUNG_FULL) + 1, RUNG_REFUSE):
        if job_at_rung(job, candidate) != job_at_rung(job, rung):
            return candidate
    return RUNG_REFUSE


#: shed reasons besides the failure kinds: the service wall budget ran
#: out before dispatch, and the job's config shard has an open breaker
REASON_ADMISSION = "admission-budget"
REASON_BREAKER = "breaker-open"


def step_down(job: "CompileJob", rung: int,
              reason: str) -> tuple[int, "CompileJob"]:
    """Where ``reason`` sheds ``job`` from ``rung``: the ``(rung, job)``
    of its next dispatch, which runs ``job_at_rung(job, rung)``.

    * ``admission-budget`` — the scalar rung; a job that already
      compiles scalar stays where it is (the same ``rung`` and ``job``);
    * ``backend-unsupported`` / ``backend-mismatch`` — the same rung on
      the interpreter tier;
    * ``breaker-open`` or a retryable kind whose retries are spent —
      the next rung that changes the compile, :data:`RUNG_REFUSE` when
      none does.
    """
    if reason == REASON_ADMISSION:
        if job_at_rung(job, RUNG_SCALAR) == job_at_rung(job, rung):
            return rung, job
        return RUNG_SCALAR, job
    if reason in BACKEND_SHED_KINDS:
        return rung, dataclasses.replace(job, backend="interp")
    return next_rung(job, rung), job


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: breaker routing decisions
ROUTE_FULL = "full"    #: dispatch at the requested rung
ROUTE_SHED = "shed"    #: route straight down the ladder
ROUTE_PROBE = "probe"  #: one full-fidelity half-open probe


@dataclass(frozen=True)
class BreakerPolicy:
    """When a config-shard trips, and how eagerly it probes back."""

    #: consecutive full-fidelity failures that trip the shard OPEN;
    #: 0 disables the breaker
    failure_threshold: int = 3
    #: shed jobs routed down the ladder before one half-open probe
    probe_after: int = 2


@dataclass
class _ShardState:
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    shed_since_open: int = 0
    shed_total: int = 0


class CircuitBreaker:
    """Per config-shard failure isolation for a long-lived service.

    A *shard* is whatever string the service keys jobs by (the config
    name here: one pathological configuration must not drag every other
    configuration's jobs through doomed full-fidelity compiles).
    """

    def __init__(self, policy: Optional[BreakerPolicy] = None):
        self.policy = policy if policy is not None else BreakerPolicy()
        self._shards: dict[str, _ShardState] = {}
        self.opened = 0
        self.closed = 0
        self.probes = 0

    def _shard(self, key: str) -> _ShardState:
        return self._shards.setdefault(key, _ShardState())

    @property
    def enabled(self) -> bool:
        return self.policy.failure_threshold > 0

    def state(self, key: str) -> str:
        return self._shard(key).state

    # ------------------------------------------------------------------

    def route(self, key: str) -> str:
        """Routing decision for one full-fidelity dispatch on ``key``."""
        if not self.enabled:
            return ROUTE_FULL
        shard = self._shard(key)
        if shard.state == BREAKER_CLOSED:
            return ROUTE_FULL
        if shard.state == BREAKER_OPEN:
            shard.shed_since_open += 1
            shard.shed_total += 1
            if shard.shed_since_open > self.policy.probe_after:
                shard.state = BREAKER_HALF_OPEN
                self.probes += 1
                return ROUTE_PROBE
            return ROUTE_SHED
        # HALF_OPEN: exactly one probe in flight; shed everything else.
        shard.shed_total += 1
        return ROUTE_SHED

    def record_success(self, key: str, probe: bool = False) -> None:
        if not self.enabled:
            return
        shard = self._shard(key)
        if probe or shard.state == BREAKER_HALF_OPEN:
            shard.state = BREAKER_CLOSED
            shard.consecutive_failures = 0
            shard.shed_since_open = 0
            self.closed += 1
            return
        shard.consecutive_failures = 0

    def record_failure(self, key: str, probe: bool = False) -> None:
        if not self.enabled:
            return
        shard = self._shard(key)
        if probe or shard.state == BREAKER_HALF_OPEN:
            # The probe failed: back to OPEN, restart the shed count.
            shard.state = BREAKER_OPEN
            shard.shed_since_open = 0
            self.opened += 1
            return
        shard.consecutive_failures += 1
        if (shard.state == BREAKER_CLOSED
                and shard.consecutive_failures
                >= self.policy.failure_threshold):
            shard.state = BREAKER_OPEN
            shard.shed_since_open = 0
            self.opened += 1

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-friendly per-shard state for batch reports."""
        return {
            key: {
                "state": shard.state,
                "consecutive_failures": shard.consecutive_failures,
                "shed_total": shard.shed_total,
            }
            for key, shard in sorted(self._shards.items())
        }


# ---------------------------------------------------------------------------
# The service-wide policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionPolicy:
    """How a service paces and bounds one batch."""

    #: maximum jobs in flight (submitted, not yet finished); submission
    #: beyond this blocks — backpressure, not unbounded buffering
    queue_capacity: int = 32
    #: wall-clock budget for the whole batch; once it runs out, jobs
    #: dispatched later shed to the scalar rung.  None = unlimited
    max_total_seconds: Optional[float] = None
    #: budget installed on jobs that do not carry one (module caps are
    #: the per-job admission unit); None = leave jobs as submitted
    job_budget: Optional[Budget] = None

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything :class:`~repro.service.service.CompilationService`
    needs to survive a hostile afternoon."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: per-job wall-clock deadline enforced at the pool level; ``None``
    #: disables deadlines (the historical behaviour)
    job_timeout: Optional[float] = None
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: consecutive executor rebuilds tolerated before the pool declares
    #: itself irrecoverable and fails the remaining jobs structurally
    max_pool_rebuilds: int = 8


__all__ = [
    "AdmissionPolicy",
    "BACKEND_SHED_KINDS",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerPolicy",
    "CircuitBreaker",
    "ERROR_BACKEND_MISMATCH",
    "ERROR_BACKEND_UNSUPPORTED",
    "ERROR_CACHE_IO",
    "ERROR_COMPILE",
    "ERROR_POOL",
    "ERROR_POOL_IRRECOVERABLE",
    "ERROR_REFUSED",
    "ERROR_TIMEOUT",
    "ERROR_WORKER_CRASHED",
    "ERROR_WORKER_LOST",
    "is_retryable",
    "job_at_rung",
    "JobError",
    "next_rung",
    "REASON_ADMISSION",
    "REASON_BREAKER",
    "ResiliencePolicy",
    "RETRYABLE_KINDS",
    "ROUTE_FULL",
    "ROUTE_PROBE",
    "ROUTE_SHED",
    "RetryPolicy",
    "RUNG_FULL",
    "RUNG_NAMES",
    "RUNG_REDUCED",
    "RUNG_REFUSE",
    "RUNG_SCALAR",
    "step_down",
]
