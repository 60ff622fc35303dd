"""Service metrics: one structured snapshot per batch.

Everything the CLI prints after ``lslp batch`` and the benchmarks graph
lives here: cache traffic split by tier, queue/admission behaviour, and
per-stage wall time from which worker utilization falls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import metrics as _metrics


@dataclass
class StageSeconds:
    """Wall time spent per service stage (parent-process view, except
    ``compile`` which sums the workers' per-job walls)."""

    lookup: float = 0.0       #: cache key computation + tier lookups
    compile: float = 0.0      #: sum of worker walls over every attempt
    store: float = 0.0        #: cache write-through
    rehydrate: float = 0.0    #: parsing printed IR back to a Module


@dataclass
class ServiceStats:
    """Counters for one :class:`CompilationService` batch (or lifetime,
    for a long-lived service: batches accumulate)."""

    jobs: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: jobs that actually ran the pass pipeline (== cold compiles);
    #: a fully warm batch performs zero vectorizer invocations
    vectorizer_invocations: int = 0
    #: jobs the service wall budget shed to the scalar rung
    degraded: int = 0
    #: jobs the degradation ladder refused: no rung below the one that
    #: shed them changes the compile
    refused: int = 0
    #: jobs that failed outside the guard (front-end errors, strict mode)
    errors: int = 0
    #: jobs whose module-scope budget ran dry mid-compile
    budget_exhausted: int = 0
    workers: int = 1
    queue_depth_highwater: int = 0
    batch_seconds: float = 0.0
    stage_seconds: StageSeconds = field(default_factory=StageSeconds)
    # ---- resilience (retry / deadline / ladder / breaker) ------------
    #: pool-level retry attempts scheduled (crashes, timeouts)
    retries: int = 0
    #: jobs that ultimately produced an artifact after >= 1 retry
    retry_succeeded: int = 0
    #: per-job deadlines that expired (each kills + rebuilds the pool)
    timeouts: int = 0
    #: executor rebuilds after a broken pool or a deadline kill
    pool_rebuilds: int = 0
    #: ladder steps down to the *reduced* rung (budgets tightened,
    #: exhaustive selection stripped)
    degrade_reduced: int = 0
    #: ladder steps down to the *scalar* rung
    degrade_scalar: int = 0
    #: circuit-breaker transitions and probes
    breaker_opened: int = 0
    breaker_closed: int = 0
    breaker_probes: int = 0
    #: full-fidelity dispatches shed because a shard's breaker was open
    breaker_shed: int = 0
    #: jobs re-run on the interpreter tier after a permanent backend
    #: failure (compiled-vs-interpreter mismatch or unsupported
    #: construct under ``backend=compiled``)
    backend_shed: int = 0
    # ---- latency samples (published as histograms) -------------------
    #: seconds each cache miss waited between entering the pending set
    #: and its first dispatch (one sample per dispatched job)
    queue_wait_samples: list = field(default_factory=list)
    #: end-to-end worker wall seconds per executed job, successes and
    #: failures alike (one sample per final outcome)
    job_latency_samples: list = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the worker pool during the batch."""
        available = self.workers * self.batch_seconds
        if available <= 0:
            return 0.0
        return min(1.0, self.stage_seconds.compile / available)

    # ------------------------------------------------------------------

    def publish(self) -> None:
        """Push this snapshot's counters into the global observability
        metrics registry (a no-op unless publishing is enabled)."""
        if not _metrics.publishing():
            return
        _metrics.add("service.jobs", self.jobs)
        _metrics.add("cache.memory_hits", self.memory_hits)
        _metrics.add("cache.disk_hits", self.disk_hits)
        _metrics.add("cache.misses", self.misses)
        _metrics.add("cache.stores", self.stores)
        _metrics.add("service.vectorizer_invocations",
                     self.vectorizer_invocations)
        _metrics.add("service.degraded", self.degraded)
        _metrics.add("service.refused", self.refused)
        _metrics.add("service.errors", self.errors)
        _metrics.add("service.budget_exhausted", self.budget_exhausted)
        _metrics.add("service.retry.attempts", self.retries)
        _metrics.add("service.retry.succeeded", self.retry_succeeded)
        _metrics.add("service.timeouts", self.timeouts)
        _metrics.add("service.pool_rebuilds", self.pool_rebuilds)
        _metrics.add("service.degrade.reduced", self.degrade_reduced)
        _metrics.add("service.degrade.scalar", self.degrade_scalar)
        _metrics.add("service.breaker.opened", self.breaker_opened)
        _metrics.add("service.breaker.closed", self.breaker_closed)
        _metrics.add("service.breaker.probes", self.breaker_probes)
        _metrics.add("service.breaker.shed", self.breaker_shed)
        _metrics.add("service.backend_shed", self.backend_shed)
        _metrics.set_gauge("service.queue_depth_highwater",
                           self.queue_depth_highwater)
        # Histograms are created even when empty so serial and pool
        # batches publish the *same metric set* regardless of sample
        # availability (the telemetry regression test pins this).
        registry = _metrics.registry()
        waits = registry.histogram("service.queue_wait_seconds")
        for sample in self.queue_wait_samples:
            waits.observe(sample)
        latencies = registry.histogram("service.job_latency_seconds")
        for sample in self.job_latency_samples:
            latencies.observe(sample)

    # ------------------------------------------------------------------

    def render(self) -> str:
        stage = self.stage_seconds
        lines = [
            f"batch: {self.jobs} job(s) in {self.batch_seconds:.3f}s "
            f"with {self.workers} worker(s)",
            f"cache: {self.memory_hits} memory hit(s), "
            f"{self.disk_hits} disk hit(s), {self.misses} miss(es) "
            f"(hit rate {100.0 * self.hit_rate:.1f}%)",
            f"vectorizer invocations: {self.vectorizer_invocations}; "
            f"degraded: {self.degraded}; refused: {self.refused}; "
            f"errors: {self.errors}; "
            f"budget-exhausted: {self.budget_exhausted}",
            f"queue depth high-water: {self.queue_depth_highwater}; "
            f"worker utilization: "
            f"{100.0 * self.worker_utilization:.0f}%",
            f"stage seconds: lookup {stage.lookup:.3f}, "
            f"compile {stage.compile:.3f}, store {stage.store:.3f}, "
            f"rehydrate {stage.rehydrate:.3f}",
        ]
        if (self.retries or self.timeouts or self.pool_rebuilds
                or self.degrade_reduced or self.degrade_scalar
                or self.refused or self.breaker_opened
                or self.backend_shed):
            lines.append(
                f"resilience: {self.retries} retry(ies) "
                f"({self.retry_succeeded} recovered), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_rebuilds} pool rebuild(s); "
                f"ladder: {self.degrade_reduced} reduced, "
                f"{self.degrade_scalar} scalar, "
                f"{self.refused} refused; "
                f"breaker: {self.breaker_opened} opened, "
                f"{self.breaker_closed} closed, "
                f"{self.breaker_probes} probe(s), "
                f"{self.breaker_shed} shed; "
                f"backend: {self.backend_shed} shed to interp"
            )
        return "\n".join(lines)


__all__ = ["ServiceStats", "StageSeconds"]
