"""The batch compilation service: cache + pool + admission + resilience.

:class:`CompilationService` is the front door batch workloads use
(``lslp batch``, the figure runner, the benchmarks):

1. every job's content hash is looked up in the
   :class:`~repro.service.cache.CompileCache` (memory LRU, then disk);
2. misses fan out to the :mod:`~repro.service.pool` in the
   :class:`~repro.service.resilience.AdmissionPolicy`'s bounded window;
   the pool retries crashed/timed-out jobs under the
   :class:`~repro.service.resilience.RetryPolicy`;
3. a job is shed down the **degradation ladder** (full → reduced →
   scalar → refuse) in bounded rounds, one way whatever the reason:
   the service wall budget running out before dispatch, an open
   per-config-shard :class:`~repro.service.resilience.CircuitBreaker`,
   spent retries, or a backend failure.
   :func:`~repro.service.resilience.step_down` names the next dispatch
   and :meth:`CompilationService._step` records the step: a reason on
   the job, a rung and a reason counter, a ``job`` telemetry event,
   and at the bottom a structured refusal;
4. completed compiles are written through to every cache tier; an
   artifact a shed produced is never cached — it is not the true
   artifact for its key — and carries one remark per kind of reason;
5. a :class:`~repro.service.metrics.ServiceStats` snapshot accumulates
   cache traffic, queue depth, retry/breaker/ladder activity, per-stage
   wall time and utilization.

The service is deterministic by construction: hits return the bytes the
cold compile produced, serial/parallel execution share one job runner,
and retried jobs recompile the identical artifact (the attempt number
is outside the cache key), so a batch's reports are byte-identical
across ``--jobs`` settings, cache temperatures, and seeded chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from ..ir.function import Module
from ..ir.parser import parse_module
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..obs.tracing import span
from ..robustness.diagnostics import Remark, Severity
from ..slp.vectorizer import VectorizationReport
from .cache import CacheEntry, CompileCache
from .jobs import Capture, CompileJob, JobOutcome
from .metrics import ServiceStats
from .pool import PoolEvent, run_jobs
from .resilience import (
    AdmissionPolicy,
    BACKEND_SHED_KINDS,
    CircuitBreaker,
    ERROR_COMPILE,
    ERROR_REFUSED,
    is_retryable,
    job_at_rung,
    JobError,
    REASON_ADMISSION,
    REASON_BREAKER,
    ResiliencePolicy,
    ROUTE_PROBE,
    ROUTE_SHED,
    RUNG_FULL,
    RUNG_NAMES,
    RUNG_REDUCED,
    RUNG_REFUSE,
    RUNG_SCALAR,
    step_down,
)
from .serde import (remark_from_dict, remark_to_dict, report_from_dict,
                    report_to_json)


@dataclass
class JobResult:
    """One job's artifact as returned to service callers."""

    job: CompileJob
    entry: Optional[CacheEntry] = None
    #: "" (cold compile), "memory" or "disk"
    cache_tier: str = ""
    degraded: bool = False
    error: str = ""
    #: structured failure detail when ``error`` is set
    error_info: Optional[JobError] = None
    #: executions the artifact took, counting pool-level retries
    attempts: int = 1
    #: worker wall seconds the final execution took (0 for cache hits)
    worker_seconds: float = 0.0
    #: the degradation-ladder rung the artifact was produced at
    rung: str = RUNG_NAMES[RUNG_FULL]
    _module: Optional[Module] = field(default=None, repr=False)

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.error == "" and self.entry is not None

    @property
    def cached(self) -> bool:
        return self.cache_tier != ""

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    @property
    def ir_text(self) -> str:
        return self.entry.ir_text if self.entry is not None else ""

    @property
    def compile_seconds(self) -> float:
        return self.entry.compile_seconds if self.entry else 0.0

    @property
    def static_cost(self) -> int:
        return self.entry.static_cost if self.entry else 0

    @property
    def report(self) -> VectorizationReport:
        if self.entry is None:
            return VectorizationReport(self.job.name,
                                       self.job.config.name)
        return report_from_dict(self.entry.report)

    @property
    def report_json(self) -> str:
        """Canonical bytes for determinism comparisons."""
        return report_to_json(self.report)

    @property
    def remarks(self) -> list[Remark]:
        if self.entry is None:
            return []
        return [remark_from_dict(r) for r in self.entry.remarks]

    @property
    def rolled_back(self) -> list[str]:
        return list(self.entry.rolled_back) if self.entry else []

    @property
    def module(self) -> Module:
        """The compiled module — live after a cold inline compile,
        rehydrated from the printed IR otherwise."""
        if self._module is None:
            if self.entry is None:
                raise RuntimeError(
                    f"job {self.job.name!r} has no artifact: {self.error}"
                )
            self._module = parse_module(self.entry.ir_text)
        return self._module


@dataclass
class BatchResult:
    """All results of one batch, in submission order, plus the stats
    delta for just this batch."""

    results: list[JobResult]
    stats: ServiceStats
    #: per-config-shard circuit-breaker state after the batch
    breaker_states: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def errors(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]


@dataclass
class _Pending:
    """One cache miss on its way through the ladder rounds."""

    index: int
    #: the submitted job with the admission job budget installed; a
    #: backend shed moves it to the interpreter tier
    job: CompileJob
    #: the job as the caller submitted it: what every result carries
    submitted: CompileJob
    rung: int = RUNG_FULL    #: rung the next dispatch runs at
    probe: bool = False      #: this dispatch is a half-open probe
    #: perf_counter when the job entered the pending set; its first
    #: dispatch samples the queue-wait histogram from this
    queued_at: float = 0.0
    dispatched: bool = False
    #: one reason per step that shed the job, oldest first — surfaced
    #: in the artifact's remarks
    reasons: list[str] = field(default_factory=list)


#: the ServiceStats counter each step bumps for the rung it lands on
_RUNG_COUNTERS = {
    RUNG_REDUCED: "degrade_reduced",
    RUNG_SCALAR: "degrade_scalar",
    RUNG_REFUSE: "refused",
}
#: the ServiceStats counter a step bumps for its reason (spent retries
#: have none: ``retries`` counts their attempts)
_REASON_COUNTERS = {
    REASON_ADMISSION: "degraded",
    REASON_BREAKER: "breaker_shed",
    **{kind: "backend_shed" for kind in BACKEND_SHED_KINDS},
}


class CompilationService:
    """A long-lived batch compiler with caching, admission control and
    failure resilience."""

    def __init__(self, cache: Optional[CompileCache] = None,
                 jobs: int = 1,
                 admission: Optional[AdmissionPolicy] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 guard_default: str = "guarded",
                 telemetry=None):
        self.cache = cache
        #: optional :class:`~repro.service.telemetry.TelemetrySession`;
        #: when set, every job lifecycle milestone is reported and each
        #: outcome's captured payload is stitched into the batch trace
        self.telemetry = telemetry
        self.jobs = max(1, jobs)
        self.admission = (admission if admission is not None
                          else AdmissionPolicy())
        #: perf_counter past which the running batch's wall budget is
        #: spent (None = unlimited)
        self._deadline: Optional[float] = None
        self.resilience = (resilience if resilience is not None
                           else ResiliencePolicy())
        #: per config-shard; lives as long as the service, so repeated
        #: batches against a broken configuration stay shed
        self.breaker = CircuitBreaker(self.resilience.breaker)
        self.guard_default = guard_default
        #: lifetime counters; ``compile_batch`` also returns per-batch
        self.stats = ServiceStats(workers=self.jobs)

    # ------------------------------------------------------------------

    def compile_job(self, job: CompileJob) -> JobResult:
        """Single-job convenience: one-element batch, same semantics."""
        return self.compile_batch([job]).results[0]

    def compile_batch(self, jobs: Sequence[CompileJob]) -> BatchResult:
        batch = ServiceStats(workers=self.jobs)
        started = time.perf_counter()
        limit = self.admission.max_total_seconds
        self._deadline = started + limit if limit is not None else None
        batch.jobs = len(jobs)

        results: list[Optional[JobResult]] = [None] * len(jobs)
        pending: list[_Pending] = []
        capture = self._capture()
        #: per job index, the records of the attempt that produced its
        #: result
        replay: dict[int, list[dict]] = {}

        # ---- stage 1: cache lookups, in submission order -------------
        telemetry = self.telemetry
        with span("service.lookup", jobs=len(jobs)):
            for index, job in enumerate(jobs):
                if telemetry is not None:
                    telemetry.job_event(index, job, "queued")
                lookup_started = time.perf_counter()
                entry, tier = self._lookup(job)
                batch.stage_seconds.lookup += (
                    time.perf_counter() - lookup_started
                )
                if entry is not None:
                    if tier == "memory":
                        batch.memory_hits += 1
                    else:
                        batch.disk_hits += 1
                    results[index] = JobResult(job, entry,
                                               cache_tier=tier)
                    if telemetry is not None:
                        telemetry.job_event(index, job, "hit",
                                            tier=tier)
                else:
                    batch.misses += 1
                    pending.append(_Pending(
                        index, self._with_job_budget(job), job,
                        queued_at=time.perf_counter(),
                    ))

        # ---- stage 2: pool rounds over the degradation ladder --------
        # Crashes and deadlines retry *inside* one pool run; a job shed
        # at completion re-runs in the next round.  The rungs and the
        # one backend shed bound the rounds.
        with span("service.compile", misses=len(pending),
                  workers=self.jobs):
            round_no = 0
            while pending and round_no <= RUNG_REFUSE:
                pending = self._run_round(pending, results, batch,
                                          capture, replay)
                round_no += 1
            # Defensive: the ladder is strictly descending, so this is
            # unreachable — but never drop a job on the floor.
            for item in pending:  # pragma: no cover
                results[item.index] = self._refusal(
                    item, "degradation ladder did not converge")

        batch.batch_seconds = time.perf_counter() - started
        self._accumulate(batch)
        batch.publish()
        ordered = [r for r in results if r is not None]
        # Completion order varies with --jobs, so the captured records
        # reach the sink once every result is in, in submission order:
        # the record stream is byte-identical across serial and
        # parallel executors by construction.
        for index in sorted(replay):
            for record in replay[index]:
                _records.forward(record)
        return BatchResult(ordered, batch,
                           breaker_states=self.breaker.snapshot())

    def _capture(self) -> Optional[Capture]:
        """What this batch's job attempts ship home, read once from
        this process's obs state: the record types its sink or
        telemetry session takes, metrics when it publishes, spans under
        telemetry.  ``None`` — the plain job path — with every pillar
        off."""
        sink = _records.active_sink()
        telemetry = self.telemetry
        publishing = _metrics.publishing()
        if sink is None and telemetry is None and not publishing:
            return None
        takers = [taker for taker in (sink, telemetry)
                  if taker is not None]
        return Capture(
            records=frozenset(
                type_ for type_ in _records.RECORD_SCHEMA
                if any(taker.wants(type_) for taker in takers)
            ),
            metrics=publishing,
            spans=telemetry is not None,
        )

    # ------------------------------------------------------------------

    def _run_round(self, pending: list[_Pending],
                   results: list[Optional[JobResult]],
                   batch: ServiceStats, capture: Optional[Capture],
                   replay: dict[int, list[dict]]) -> list[_Pending]:
        """One pool pass; returns the jobs shed to run again.  Every
        attempt's captured metrics merge into this process's registry;
        the records of an attempt that produced a result are kept in
        ``replay``."""
        policy = self.resilience
        telemetry = self.telemetry
        meta: dict[int, _Pending] = {}
        carry: list[_Pending] = []

        def shard(job: CompileJob) -> str:
            return job.config.name

        def dispatch() -> Iterator[tuple[int, CompileJob]]:
            """Admission + breaker routing at dispatch time: the pool's
            bounded window only pulls the next item when a slot frees,
            so both see the batch's true state."""
            for item in pending:
                if (self._deadline is not None
                        and time.perf_counter() > self._deadline):
                    # never a refusal: the scalar rung always runs
                    self._step(item, REASON_ADMISSION, batch, results)
                if item.rung == RUNG_FULL:
                    route = self.breaker.route(shard(item.job))
                    if route == ROUTE_PROBE:
                        item.probe = True
                        # ``CircuitBreaker.probes`` ticks inside
                        # route(), not record_*, so count it here.
                        batch.breaker_probes += 1
                    elif (route == ROUTE_SHED and not self._step(
                            item, REASON_BREAKER, batch, results)):
                        continue
                if not item.dispatched:
                    item.dispatched = True
                    batch.queue_wait_samples.append(
                        time.perf_counter() - item.queued_at
                    )
                if telemetry is not None:
                    telemetry.job_event(
                        item.index, item.job, "dispatched",
                        rung=RUNG_NAMES[item.rung], probe=item.probe,
                    )
                meta[item.index] = item
                yield item.index, job_at_rung(item.job, item.rung)

        def observe_depth(depth: int) -> None:
            batch.queue_depth_highwater = max(
                batch.queue_depth_highwater, depth
            )

        def observe_event(event: PoolEvent) -> None:
            if event.kind == "retry":
                batch.retries += 1
                batch.stage_seconds.compile += event.worker_seconds
                self._receive(event.index, event.captured)
            elif event.kind == "timeout":
                batch.timeouts += 1
            elif event.kind == "pool-rebuild":
                batch.pool_rebuilds += 1
            if telemetry is None:
                return
            if event.kind in ("retry", "timeout") and event.index in meta:
                telemetry.job_event(
                    event.index, meta[event.index].job, event.kind,
                    attempt=event.attempt,
                    delay_ms=round(event.delay * 1e3, 3),
                    detail=event.detail,
                )
            elif event.kind == "pool-rebuild":
                telemetry.service_event("pool-rebuild",
                                        detail=event.detail)

        for index, outcome in run_jobs(
                dispatch(), workers=self.jobs,
                window=self.admission.queue_capacity,
                on_depth=observe_depth, retry=policy.retry,
                job_timeout=policy.job_timeout,
                on_event=observe_event,
                max_pool_rebuilds=policy.max_pool_rebuilds,
                capture=capture):
            item = meta[index]
            self._receive(index, outcome.captured)
            batch.stage_seconds.compile += outcome.worker_seconds
            kind = (outcome.error_info.kind
                    if outcome.error_info is not None else ERROR_COMPILE)
            if item.rung == RUNG_FULL:
                # A backend failure follows a successful compile.
                self._breaker_feedback(
                    batch, shard(item.job),
                    ok=not outcome.error or kind in BACKEND_SHED_KINDS,
                    probe=item.probe)
            if outcome.error and (is_retryable(kind)
                                  or kind in BACKEND_SHED_KINDS):
                # Retries spent, or a deterministic backend failure.
                if self._step(item, kind, batch, results,
                              failure=outcome.error):
                    carry.append(item)
                    continue
            elif outcome.error:
                # Compile diagnostics are deterministic; re-running the
                # same program at a lower rung cannot un-break it.
                batch.errors += 1
                results[index] = JobResult(
                    item.submitted, error=outcome.error,
                    error_info=outcome.error_info,
                    attempts=outcome.attempts,
                    worker_seconds=outcome.worker_seconds,
                    rung=RUNG_NAMES[item.rung],
                    degraded=item.rung > RUNG_FULL,
                )
                if telemetry is not None:
                    telemetry.job_event(index, item.job, "failed",
                                        reason=kind,
                                        attempts=outcome.attempts)
            else:
                results[index] = self._absorb(outcome, batch, item)
                if telemetry is not None:
                    telemetry.job_event(
                        index, item.job, "completed",
                        rung=RUNG_NAMES[item.rung],
                        attempts=outcome.attempts,
                    )
            # This outcome finished its job (completed, errored or
            # refused): count it once.
            batch.job_latency_samples.append(outcome.worker_seconds)
            batch.vectorizer_invocations += 1
            if outcome.captured is not None:
                replay[index] = outcome.captured["records"]
        return carry

    # ------------------------------------------------------------------

    def _step(self, item: _Pending, reason: str, batch: ServiceStats,
              results: list[Optional[JobResult]],
              failure: str = "") -> bool:
        """Shed ``item`` one step for ``reason`` (see
        :func:`~repro.service.resilience.step_down`) and record it: the
        reason on the job, a counter for the rung it lands on and one
        for the reason, one ``job`` telemetry event, and at the bottom
        the refusal as the job's result.  ``failure`` is the error that
        shed it, if any.  Returns whether the job is still to run."""
        rung, job = step_down(item.job, item.rung, reason)
        if (rung, job) == (item.rung, item.job):
            return True    # admission: the job already compiles scalar
        counters = [_REASON_COUNTERS.get(reason)]
        if rung != item.rung:
            counters.append(_RUNG_COUNTERS[rung])
        for counter in filter(None, counters):
            setattr(batch, counter, getattr(batch, counter) + 1)
        item.reasons.append(reason)
        item.rung, item.job, item.probe = rung, job, False
        refused = rung == RUNG_REFUSE
        if refused:
            results[item.index] = self._refusal(
                item, f"degradation ladder exhausted after "
                      f"{failure or reason}")
        if self.telemetry is not None:
            self.telemetry.job_event(
                item.index, job, "refused" if refused else "rung",
                rung=RUNG_NAMES[rung], reason=reason,
            )
        return not refused

    def _receive(self, index: int, captured: Optional[dict]) -> None:
        """Take one attempt's shipped payload: its metrics merge into
        this process's registry and the telemetry session stitches it
        (its records reach the sink only through ``replay``)."""
        if captured is None:
            return
        _metrics.registry().merge_typed(captured["metrics"])
        if self.telemetry is not None:
            self.telemetry.absorb(index, captured)

    def _breaker_feedback(self, batch: ServiceStats, shard: str,
                          ok: bool, probe: bool) -> None:
        opened, closed = self.breaker.opened, self.breaker.closed
        if ok:
            self.breaker.record_success(shard, probe=probe)
        else:
            self.breaker.record_failure(shard, probe=probe)
        batch.breaker_opened += self.breaker.opened - opened
        batch.breaker_closed += self.breaker.closed - closed

    def _refusal(self, item: _Pending, message: str) -> JobResult:
        return JobResult(
            item.submitted,
            error=f"refused: {message}",
            error_info=JobError(
                kind=ERROR_REFUSED, message=message,
                job_name=item.job.name,
                config_name=item.job.config.name,
            ),
            rung=RUNG_NAMES[RUNG_REFUSE],
        )

    def _with_job_budget(self, job: CompileJob) -> CompileJob:
        budget = self.admission.job_budget
        if budget is None or job.config.budget is not None:
            return job
        return replace(job, config=job.config.with_budget(budget))

    def _lookup(self, job: CompileJob
                ) -> tuple[Optional[CacheEntry], str]:
        if self.cache is None:
            return None, ""
        return self.cache.get(job.cache_key())

    def _absorb(self, outcome: JobOutcome, batch: ServiceStats,
                item: _Pending) -> JobResult:
        job = item.submitted
        if outcome.attempts > 1:
            batch.retry_succeeded += 1
        if outcome.budget_exhausted:
            batch.budget_exhausted += 1
        entry = outcome.entry
        assert entry is not None
        if item.reasons:
            # Shed below the submitted job's fidelity: not the true
            # artifact for its key, so never cached.
            entry.remarks.extend(
                _shed_remarks(job, item.rung, item.reasons))
        elif self.cache is not None:
            store_started = time.perf_counter()
            with span("service.store", job=job.name):
                self.cache.put(entry.key, entry)
            batch.stage_seconds.store += (
                time.perf_counter() - store_started
            )
            batch.stores += 1
        return JobResult(
            job, entry, degraded=item.rung > RUNG_FULL,
            attempts=outcome.attempts,
            worker_seconds=outcome.worker_seconds,
            rung=RUNG_NAMES[item.rung],
            _module=getattr(outcome, "module", None),
        )

    def _accumulate(self, batch: ServiceStats) -> None:
        life = self.stats
        life.jobs += batch.jobs
        life.memory_hits += batch.memory_hits
        life.disk_hits += batch.disk_hits
        life.misses += batch.misses
        life.stores += batch.stores
        life.vectorizer_invocations += batch.vectorizer_invocations
        life.degraded += batch.degraded
        life.refused += batch.refused
        life.errors += batch.errors
        life.budget_exhausted += batch.budget_exhausted
        life.retries += batch.retries
        life.retry_succeeded += batch.retry_succeeded
        life.timeouts += batch.timeouts
        life.pool_rebuilds += batch.pool_rebuilds
        life.degrade_reduced += batch.degrade_reduced
        life.degrade_scalar += batch.degrade_scalar
        life.breaker_opened += batch.breaker_opened
        life.breaker_closed += batch.breaker_closed
        life.breaker_probes += batch.breaker_probes
        life.breaker_shed += batch.breaker_shed
        life.backend_shed += batch.backend_shed
        life.queue_wait_samples.extend(batch.queue_wait_samples)
        life.job_latency_samples.extend(batch.job_latency_samples)
        life.queue_depth_highwater = max(life.queue_depth_highwater,
                                         batch.queue_depth_highwater)
        life.batch_seconds += batch.batch_seconds
        life.stage_seconds.lookup += batch.stage_seconds.lookup
        life.stage_seconds.compile += batch.stage_seconds.compile
        life.stage_seconds.store += batch.stage_seconds.store
        life.stage_seconds.rehydrate += batch.stage_seconds.rehydrate


def _shed_remarks(job: CompileJob, rung: int,
                  reasons: list[str]) -> list[dict]:
    """The remarks of an artifact shed to ``rung``: one per kind of
    reason — the interpreter tier after backend failures, the scalar
    rung after the admission budget, and the ladder after the rest."""
    backend = [r for r in reasons if r in BACKEND_SHED_KINDS]
    ladder = [r for r in reasons
              if r not in BACKEND_SHED_KINDS and r != REASON_ADMISSION]
    remarks = []
    if backend:
        remarks.append(_service_remark(
            job, "backend",
            f"compiled execution tier shed to the interpreter after "
            f"{', '.join(backend)}",
            remediation="inspect the backend-mismatch report, or "
                        "submit with backend=interp",
        ))
    if REASON_ADMISSION in reasons:
        remarks.append(_service_remark(
            job, "admission",
            "service compile budget exhausted; this job was compiled "
            "scalar-only",
            remediation="raise --max-total-seconds or shrink the batch",
        ))
    if ladder:
        remarks.append(_service_remark(
            job, "resilience",
            f"degradation ladder: compiled at the {RUNG_NAMES[rung]!r} "
            f"rung after {', '.join(ladder)}",
            remediation="raise --job-timeout/--max-retries, or "
                        "investigate the worker failures in the batch "
                        "report",
        ))
    return remarks


def _service_remark(job: CompileJob, category: str, message: str, *,
                    remediation: str) -> dict:
    """A warning about ``job`` from the service stage ``category``, in
    the one serialized remark schema."""
    return remark_to_dict(Remark(
        Severity.WARNING, category, message, function=job.name,
        pass_name=category, phase=category, remediation=remediation,
    ))


__all__ = ["BatchResult", "CompilationService", "JobResult"]
