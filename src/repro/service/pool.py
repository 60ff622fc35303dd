"""Parallel compilation pool: crash-isolated, deadline-enforcing.

Both executors run :func:`repro.service.jobs.execute_job` — the serial
path inline, the parallel path in ``concurrent.futures`` worker
processes — so a batch compiles identically regardless of ``--jobs``.
Submission is windowed: at most ``window`` jobs are in flight, and the
item iterator is only advanced when a slot frees up, which is what lets
the service apply admission decisions at dispatch time and gives the
bounded queue its backpressure.

On top of that, this pool is built to survive a long-lived service's
failure modes:

* **crash isolation** — a killed worker raises ``BrokenProcessPool``
  out of ``concurrent.futures``, which used to poison every in-flight
  job.  Now the executor is rebuilt and only the jobs that were in
  flight are resubmitted: finished futures are harvested first, lost
  jobs are retried under the :class:`~repro.service.resilience.
  RetryPolicy`'s budget with deterministic jittered backoff.
* **deadlines** — ``job_timeout`` bounds each attempt's wall clock.
  An expired job's worker is killed (the only way to cancel a running
  process-pool future), the pool is rebuilt, and the job retries under
  a shrunken budget (a timeout costs
  :attr:`RetryPolicy.timeout_attempt_cost` units).  Collateral jobs
  from the same pool are resubmitted as ``worker-lost``.
* **containment** — after ``max_pool_rebuilds`` *consecutive* rebuilds
  with no successful job in between, the pool declares itself
  irrecoverable and fails every remaining job with a structured
  ``pool-irrecoverable`` error; a batch never raises out of this
  generator, so partial results stay auditable.

``on_depth`` observes the true scheduling depth — in-flight plus the
retry backlog — after every change, so queue-depth high-water stats
mean something even at ``--jobs=1``.  ``on_event`` observes retries,
timeouts and rebuilds for the service's metrics; a retry event carries
the retried attempt's captured payload, so every attempt that ran ships
home, whether the pool retried it or yielded it.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

from .jobs import (
    Capture,
    CompileJob,
    execute_job,
    JobOutcome,
    mark_pool_worker,
)
from .resilience import (
    ERROR_COMPILE,
    ERROR_POOL,
    ERROR_POOL_IRRECOVERABLE,
    ERROR_TIMEOUT,
    ERROR_WORKER_LOST,
    is_retryable,
    JobError,
    RetryPolicy,
)


@dataclass
class PoolEvent:
    """One resilience incident, reported through ``on_event``."""

    kind: str            #: "retry" | "timeout" | "pool-rebuild"
    index: int = -1
    attempt: int = 0     #: retry-budget units spent after this incident
    delay: float = 0.0   #: backoff before the rescheduled attempt
    detail: str = ""
    #: a retried attempt's :attr:`JobOutcome.captured` payload
    captured: Optional[dict] = None
    #: a retried attempt's :attr:`JobOutcome.worker_seconds`
    worker_seconds: float = 0.0


@dataclass
class _InFlight:
    index: int
    job: CompileJob
    attempt: int                      #: retry-budget units already spent
    deadline: Optional[float] = None  #: absolute clock() deadline


@dataclass(order=True)
class _Retry:
    due: float
    index: int
    job: CompileJob = field(compare=False)
    attempt: int = field(compare=False, default=0)


def _safe_key(job: CompileJob) -> str:
    try:
        return job.cache_key()
    except Exception:
        return ""


def _pool_failure(job: CompileJob, kind: str, message: str,
                  attempt: int) -> JobOutcome:
    error = JobError(kind=kind, message=message, job_name=job.name,
                     config_name=job.config.name,
                     cache_key=_safe_key(job), attempt=attempt)
    return JobOutcome(entry=None, error=error.render(), error_info=error)


def run_jobs(items: Iterable[tuple[int, CompileJob]],
             workers: int = 1,
             window: int = 32,
             on_depth: Optional[Callable[[int], None]] = None,
             retry: Optional[RetryPolicy] = None,
             job_timeout: Optional[float] = None,
             on_event: Optional[Callable[[PoolEvent], None]] = None,
             max_pool_rebuilds: int = 8,
             sleep: Callable[[float], None] = time.sleep,
             clock: Callable[[], float] = time.monotonic,
             capture: Optional[Capture] = None,
             ) -> Iterator[tuple[int, JobOutcome]]:
    """Execute jobs, yielding ``(index, outcome)`` as they complete.

    Worker-side exceptions are already contained by
    :func:`execute_job`; pool-level failures (a killed worker, an
    expired deadline, an unpicklable result) are retried under
    ``retry``'s budget and finally surface as an outcome with a
    structured error — a batch never raises out of this generator.
    Every attempt runs under ``capture``, inline or in a worker.
    ``sleep``/``clock`` are injectable for tests.
    """
    policy = retry if retry is not None else RetryPolicy()
    emit = on_event if on_event is not None else (lambda event: None)
    if workers <= 1:
        yield from _run_serial(items, policy, job_timeout, on_depth,
                               emit, sleep, clock, capture)
    else:
        yield from _run_pool(items, workers, window, policy,
                             job_timeout, on_depth, emit,
                             max_pool_rebuilds, sleep, clock, capture)


# ---------------------------------------------------------------------------
# Disposition shared by both executors
# ---------------------------------------------------------------------------


def _dispose(outcome: JobOutcome, index: int, job: CompileJob,
             attempt: int, policy: RetryPolicy, retries: list[_Retry],
             emit: Callable[[PoolEvent], None],
             clock: Callable[[], float],
             may_retry: bool = True) -> Optional[JobOutcome]:
    """Decide one finished attempt.  A timeout is reported first; a
    retryable failure with budget left is queued on ``retries`` and
    reported as a ``retry`` event carrying the attempt's payload.  Any
    other outcome is final: it comes back with its attempt count."""
    kind = (outcome.error_info.kind if outcome.error_info is not None
            else ERROR_COMPILE)
    if kind == ERROR_TIMEOUT:
        emit(PoolEvent("timeout", index, attempt))
    spent = attempt + (policy.timeout_attempt_cost
                       if kind == ERROR_TIMEOUT else 1)
    if (may_retry and outcome.error and is_retryable(kind)
            and spent <= policy.max_retries):
        delay = policy.backoff_seconds(_safe_key(job), spent)
        heapq.heappush(retries, _Retry(clock() + delay, index, job, spent))
        emit(PoolEvent("retry", index, spent, delay, kind,
                       outcome.captured, outcome.worker_seconds))
        return None
    outcome.attempts = attempt + 1
    return outcome


# ---------------------------------------------------------------------------
# Serial executor
# ---------------------------------------------------------------------------


def _check_inline_deadline(job: CompileJob, outcome: JobOutcome,
                           job_timeout: Optional[float],
                           attempt: int) -> JobOutcome:
    """The serial path cannot preempt a running job; deadlines are
    enforced post-hoc so the ladder still engages for hung compiles."""
    if job_timeout is None or outcome.worker_seconds <= job_timeout:
        return outcome
    failed = _pool_failure(
        job, ERROR_TIMEOUT,
        f"job ran {outcome.worker_seconds:.3f}s, past the "
        f"{job_timeout:.3f}s deadline (enforced post-hoc inline)",
        attempt,
    )
    failed.worker_seconds = outcome.worker_seconds
    failed.captured = outcome.captured
    return failed


def _run_serial(items, policy, job_timeout, on_depth, emit, sleep,
                clock, capture) -> Iterator[tuple[int, JobOutcome]]:
    retries: list[_Retry] = []

    def depth(running: int) -> None:
        if on_depth is not None:
            on_depth(running + len(retries))

    def attempt_once(index: int, job: CompileJob, attempt: int):
        """Run one attempt; returns its outcome if final, else None
        (a retry was queued)."""
        depth(1)
        payload = replace(job, attempt=attempt) if attempt else job
        outcome = _check_inline_deadline(
            job, execute_job(payload, capture), job_timeout, attempt)
        return _dispose(outcome, index, job, attempt, policy, retries,
                        emit, clock)

    for index, job in items:
        outcome = attempt_once(index, job, 0)
        if outcome is not None:
            yield index, outcome
    while retries:
        item = heapq.heappop(retries)
        now = clock()
        if item.due > now:
            sleep(item.due - now)
        outcome = attempt_once(item.index, item.job, item.attempt)
        if outcome is not None:
            yield item.index, outcome


# ---------------------------------------------------------------------------
# Process-pool executor
# ---------------------------------------------------------------------------


def _new_executor(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=mark_pool_worker,
    )


def _kill_executor(pool) -> None:
    """Forcibly stop an executor whose workers may be hung or dead.

    ``shutdown`` alone waits for running jobs; killing the worker
    processes first is the only way to cancel a hung future.  The
    ``_processes`` walk is a private-API touch, guarded so a changed
    stdlib degrades to a plain shutdown."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _run_pool(items, workers, window, policy, job_timeout, on_depth,
              emit, max_pool_rebuilds, sleep, clock, capture,
              ) -> Iterator[tuple[int, JobOutcome]]:
    window = max(workers, window)
    iterator = iter(items)
    exhausted = False
    dead = False
    broken_streak = 0
    retries: list[_Retry] = []
    in_flight: dict[concurrent.futures.Future, _InFlight] = {}
    ready: deque[tuple[int, JobOutcome]] = deque()
    pool = _new_executor(workers)

    def depth() -> None:
        if on_depth is not None:
            on_depth(len(in_flight) + len(retries))

    def finalize(rec: _InFlight, outcome: JobOutcome) -> None:
        """Hand a final outcome to the caller (see :func:`_dispose`)."""
        final = _dispose(outcome, rec.index, rec.job, rec.attempt,
                         policy, retries, emit, clock, may_retry=not dead)
        if final is not None:
            ready.append((rec.index, final))

    def fail(rec: _InFlight, kind: str, message: str) -> None:
        finalize(rec, _pool_failure(rec.job, kind, message, rec.attempt))

    def submit(index: int, job: CompileJob, attempt: int) -> None:
        payload = replace(job, attempt=attempt) if attempt else job
        deadline = (clock() + job_timeout
                    if job_timeout is not None else None)
        future = pool.submit(execute_job, payload, capture)
        in_flight[future] = _InFlight(index, job, attempt, deadline)

    def fill() -> None:
        nonlocal exhausted
        if dead:
            return
        now = clock()
        try:
            while (retries and retries[0].due <= now
                   and len(in_flight) < window):
                item = heapq.heappop(retries)
                submit(item.index, item.job, item.attempt)
                depth()
            while not exhausted and len(in_flight) < window:
                try:
                    index, job = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                submit(index, job, 0)
                depth()
        except concurrent.futures.BrokenExecutor:
            # submit() hit a pool that broke since the last wait.
            rebuild("executor broke during submission", set())

    def rebuild(reason: str, timed_out: set) -> None:
        """Replace the executor; harvest finished futures, classify the
        rest as timeout or collateral loss, and resubmit via retry."""
        nonlocal pool, broken_streak, dead
        broken_streak += 1
        emit(PoolEvent("pool-rebuild", detail=reason))
        harvested: list[tuple[_InFlight, JobOutcome]] = []
        lost: list[tuple[concurrent.futures.Future, _InFlight]] = []
        for future, rec in list(in_flight.items()):
            if future.done() and future not in timed_out:
                try:
                    harvested.append((rec, future.result()))
                    continue
                except Exception:
                    pass  # broken/cancelled: fall through to lost
            lost.append((future, rec))
        in_flight.clear()
        _kill_executor(pool)
        pool = _new_executor(workers)
        for rec, outcome in harvested:
            finalize(rec, outcome)
        if broken_streak > max_pool_rebuilds:
            dead = True
            emit(PoolEvent("pool-rebuild",
                           detail="irrecoverable: rebuild limit hit"))
        for future, rec in lost:
            if future in timed_out:
                fail(rec, ERROR_TIMEOUT,
                     f"job exceeded the {job_timeout:.3f}s deadline; "
                     f"worker killed")
            elif dead:
                fail(rec, ERROR_POOL_IRRECOVERABLE,
                     f"worker pool irrecoverable after "
                     f"{broken_streak} consecutive rebuilds ({reason})")
            else:
                fail(rec, ERROR_WORKER_LOST, reason)

    def drain_everything() -> None:
        """Irrecoverable pool: fail the backlog structurally so every
        job is accounted for in the final report."""
        nonlocal exhausted
        while retries:
            item = heapq.heappop(retries)
            rec = _InFlight(item.index, item.job, item.attempt)
            fail(rec, ERROR_POOL_IRRECOVERABLE,
                 "worker pool irrecoverable; retry abandoned")
        if not exhausted:
            for index, job in iterator:
                rec = _InFlight(index, job, 0)
                fail(rec, ERROR_POOL_IRRECOVERABLE,
                     "worker pool irrecoverable; job never started")
            exhausted = True

    try:
        while True:
            while ready:
                yield ready.popleft()
            if dead:
                drain_everything()
                while ready:
                    yield ready.popleft()
                return
            fill()
            if not in_flight:
                if ready:
                    continue
                if retries:
                    wait_s = max(0.0, retries[0].due - clock())
                    if wait_s > 0.0:
                        sleep(wait_s)
                    continue
                if exhausted:
                    return
                continue
            # Wait until something completes, a deadline expires, or a
            # backoff elapses (only relevant if a slot is free for it).
            timeout_s = None
            now = clock()
            deadlines = [rec.deadline for rec in in_flight.values()
                         if rec.deadline is not None]
            candidates = []
            if deadlines:
                candidates.append(max(0.0, min(deadlines) - now))
            if retries and len(in_flight) < window:
                candidates.append(max(0.0, retries[0].due - now))
            if candidates:
                timeout_s = min(candidates)
            done, _ = concurrent.futures.wait(
                set(in_flight), timeout=timeout_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                rec = in_flight.pop(future)
                try:
                    outcome = future.result()
                except concurrent.futures.BrokenExecutor:
                    # A worker died; every in-flight future is suspect.
                    in_flight[future] = rec
                    broken = True
                    break
                except Exception as exc:
                    fail(rec, ERROR_POOL,
                         f"executor failed to return the job: "
                         f"{type(exc).__name__}: {exc}")
                else:
                    broken_streak = 0
                    finalize(rec, outcome)
            if broken:
                rebuild("worker process died (broken pool)", set())
                continue
            if job_timeout is not None:
                now = clock()
                expired = {
                    future for future, rec in in_flight.items()
                    if rec.deadline is not None and now >= rec.deadline
                }
                if expired:
                    rebuild("job deadline expired", expired)
    finally:
        _kill_executor(pool)


__all__ = ["PoolEvent", "run_jobs"]
