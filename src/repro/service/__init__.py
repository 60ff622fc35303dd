"""repro.service — the batch compilation service.

Compiling the evaluation suite means the same kernels under the same
four configurations, over and over — exactly the workload goSLP and
NeuroVectorizer describe for vectorization search.  This package
amortizes it:

* :mod:`cache` — a content-addressed compile cache (source/IR × config ×
  target × pipeline × version) with an in-memory LRU tier and an
  optional on-disk tier under ``.lslp-cache/``.
* :mod:`jobs` — picklable :class:`CompileJob` descriptions and the one
  job runner both executors share, which ships each attempt's records,
  metrics and spans home under the batch's :class:`Capture`.
* :mod:`pool` — serial or multi-process fan-out with a bounded
  submission window; every attempt's payload ships home, retried or
  not.
* :mod:`resilience` — the admission policy (bounded window, per-job
  budgets, a service wall budget), retry/backoff, the per-config-shard
  circuit breaker, and the one degradation ladder (full → reduced →
  scalar → refuse) that the wall budget, an open breaker, spent
  retries and backend failures all shed jobs down through
  :func:`~repro.service.resilience.step_down`.
* :mod:`metrics` — the :class:`ServiceStats` snapshot the CLI prints.
* :mod:`telemetry` — :class:`TelemetrySession`, stitching per-worker
  spans and records into one batch-wide artifact directory
  (``lslp batch --telemetry-out``).
* :mod:`report` — the ``lslp report`` batch health digest and its
  regression diff.
* :mod:`service` — :class:`CompilationService`, tying it together.

Quickstart::

    from repro.service import (
        CompilationService, CompileCache, job_for_kernel,
    )
    from repro.kernels.catalog import ALL_KERNELS
    from repro.slp.vectorizer import VectorizerConfig

    service = CompilationService(
        cache=CompileCache.with_disk(".lslp-cache"), jobs=4,
    )
    batch = service.compile_batch([
        job_for_kernel(k, VectorizerConfig.lslp())
        for k in ALL_KERNELS.values()
    ])
    print(batch.stats.render())
"""

from .cache import (
    CacheEntry,
    CompileCache,
    compute_key,
    DEFAULT_CACHE_DIR,
    DiskCache,
    MemoryCache,
)
from .jobs import (
    Capture,
    CompileJob,
    execute_job,
    job_for_kernel,
    job_for_module,
    job_for_source,
    JobOutcome,
    mark_pool_worker,
)
from .metrics import ServiceStats, StageSeconds
from .pool import PoolEvent, run_jobs
from .resilience import (
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    JobError,
    ResiliencePolicy,
    RetryPolicy,
)
from .serde import report_from_dict, report_to_dict, report_to_json
from .service import BatchResult, CompilationService, JobResult
from .telemetry import TELEMETRY_ARTIFACTS, TelemetrySession

__all__ = [
    "AdmissionPolicy",
    "BatchResult",
    "BreakerPolicy",
    "CacheEntry",
    "Capture",
    "CircuitBreaker",
    "CompilationService",
    "CompileCache",
    "CompileJob",
    "compute_key",
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "execute_job",
    "job_for_kernel",
    "job_for_module",
    "job_for_source",
    "JobError",
    "JobOutcome",
    "JobResult",
    "mark_pool_worker",
    "MemoryCache",
    "PoolEvent",
    "report_from_dict",
    "report_to_dict",
    "report_to_json",
    "ResiliencePolicy",
    "RetryPolicy",
    "run_jobs",
    "ServiceStats",
    "StageSeconds",
    "TELEMETRY_ARTIFACTS",
    "TelemetrySession",
]
