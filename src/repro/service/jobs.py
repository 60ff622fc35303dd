"""Compile jobs: the unit of work the batch service fans out.

A :class:`CompileJob` is a pure-data description of one (kernel,
configuration) compile — mini-C source text or printed IR, the
:class:`VectorizerConfig`, the target's :class:`TargetDescription`, the
guard mode, and the oracle's verify settings.  Everything is picklable,
so a job can cross a process boundary to a pool worker unchanged.

:func:`execute_job` is the single compilation path used by *both* the
serial and the parallel executors (determinism by construction): one
:func:`repro.opt.pipelines.compile_module` call — the guarded compile
loop ``lslp compile`` runs — compiles every function of the job's
module, all sharing one module-scope :class:`ModuleMeter`, and it
returns a :class:`JobOutcome` whose :class:`CacheEntry` is exactly what
the cache stores.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from ..costmodel.tti import TargetCostModel, TargetDescription
from ..frontend.lower import compile_kernel_source
from ..ir.function import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..kernels.catalog import Kernel
from ..obs.tracing import span
from ..robustness.budget import Budget, ModuleMeter
from ..robustness.diagnostics import Remark, Severity
from ..robustness.faults import InjectedServiceFault, ServiceFaultPlan
from ..robustness.guard import DifferentialOracle
from ..slp.vectorizer import VectorizationReport, VectorizerConfig
from .cache import CacheEntry, compute_key
from .resilience import (
    ERROR_BACKEND_MISMATCH,
    ERROR_BACKEND_UNSUPPORTED,
    ERROR_COMPILE,
    ERROR_WORKER_CRASHED,
    JobError,
)
from .serde import remark_to_dict, report_to_dict

#: pipeline identity folded into every cache key; bump on pass changes
PIPELINE_NAME = "o3+slp/v3"

#: execution backends a job may request (mirrors
#: :data:`repro.backend.tiers.BACKEND_MODES`; kept literal so pool
#: workers do not import the backend package for interp-only jobs)
JOB_BACKENDS = ("interp", "compiled", "auto")


class BackendMismatchError(Exception):
    """Compiled tier disagreed with the interpreter: an emitter bug.

    Deterministic — mapped to the permanent
    :data:`~repro.service.resilience.ERROR_BACKEND_MISMATCH` kind, and
    the ladder re-runs the job on the interpreter instead of retrying.
    """


class BackendUnsupportedError(Exception):
    """``backend="compiled"`` hit a construct the emitter refuses."""


@dataclass(frozen=True)
class CompileJob:
    """One (kernel, configuration) compile request, pure data."""

    name: str
    config: VectorizerConfig
    #: exactly one of the two payloads is set
    source: Optional[str] = None       #: mini-C program text
    ir: Optional[str] = None           #: printed-IR program text
    target_desc: TargetDescription = field(
        default_factory=TargetDescription
    )
    guard: str = "guarded"             #: "off" | "guarded" | "strict"
    #: >0 enables the differential oracle with that many seeded
    #: (memory, argument) replays per function
    verify_runs: int = 0
    verify_seed: int = 0
    #: runtime arguments for the oracle (e.g. the kernel base index)
    args: Optional[dict[str, Any]] = None
    #: 0-based execution attempt (the pool stamps retries); excluded
    #: from the cache key — every attempt compiles the same artifact
    attempt: int = 0
    #: armed service fault sites (chaos testing); excluded from the
    #: cache key — the compiled artifact is identical with or without
    chaos: Optional[ServiceFaultPlan] = None
    #: execution backend the artifact targets.  ``compiled``/``auto``
    #: emit :mod:`repro.backend` source into the cache entry, and the
    #: oracle's differential sweeps additionally cross-check the
    #: compiled tier against the interpreter.
    backend: str = "interp"

    def __post_init__(self):
        if (self.source is None) == (self.ir is None):
            raise ValueError(
                "exactly one of source/ir must be provided"
            )
        if self.guard not in ("off", "guarded", "strict"):
            raise ValueError(f"unknown guard mode {self.guard!r}")
        if self.backend not in JOB_BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")

    # ------------------------------------------------------------------

    @property
    def payload(self) -> tuple[str, str]:
        if self.source is not None:
            return "source", self.source
        return "ir", self.ir  # type: ignore[return-value]

    def cache_key(self) -> str:
        kind, text = self.payload
        target = TargetCostModel(self.target_desc)
        extra = {
            "guard": self.guard,
            "verify_runs": self.verify_runs,
            "verify_seed": self.verify_seed,
            "args": sorted((self.args or {}).items()),
            "backend": self.backend,
        }
        if self.backend != "interp":
            # the entry stores generated source, which only loads under
            # the emitter version that wrote it; interp entries carry
            # none, so their keys stay valid across emitter changes
            from ..backend import emit
            extra["emit_version"] = emit.EMIT_VERSION
        return compute_key(kind, text, self.config, target,
                           pipeline=PIPELINE_NAME, extra=extra)


def job_for_kernel(kernel: Kernel, config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   **overrides: Any) -> CompileJob:
    """A job compiling one catalog kernel under one configuration."""
    desc = (target.desc if target is not None else TargetDescription())
    overrides.setdefault("args", dict(kernel.default_args))
    return CompileJob(
        name=kernel.name, config=config, source=kernel.source,
        target_desc=desc, **overrides,
    )


def job_for_source(name: str, source: str, config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   **overrides: Any) -> CompileJob:
    desc = (target.desc if target is not None else TargetDescription())
    return CompileJob(name=name, config=config, source=source,
                      target_desc=desc, **overrides)


def job_for_module(name: str, module: Module, config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   **overrides: Any) -> CompileJob:
    """A job for an already-lowered module, keyed by its printed IR."""
    desc = (target.desc if target is not None else TargetDescription())
    return CompileJob(name=name, config=config,
                      ir=print_module(module), target_desc=desc,
                      **overrides)


# ---------------------------------------------------------------------------
# Execution (runs in pool workers and inline)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Capture:
    """What each job attempt of a batch ships home on its outcome.

    The service reads the submitting process's obs state into one of
    these once per batch.  Pool workers cannot publish into that
    process's sink, registry or tracer, so every attempt — inline or in
    a worker alike — collects into fresh ones and returns them as
    :attr:`JobOutcome.captured`; the service merges the metrics and
    replays the records.
    """

    #: record types to collect: those the submitting process's sink or
    #: telemetry session takes
    records: frozenset = frozenset()
    #: collect the attempt's metrics (the submitting process publishes)
    metrics: bool = False
    #: run the attempt under a ``job.attempt`` root span and ship its
    #: spans (telemetry sessions only)
    spans: bool = False


@dataclass
class JobOutcome:
    """What comes back from one executed job, picklable."""

    entry: Optional[CacheEntry]
    #: wall seconds the worker spent on the job end to end (front-end +
    #: passes + oracle), for utilization accounting
    worker_seconds: float = 0.0
    error: str = ""
    #: structured failure detail (kind, cache key, functions, attempt,
    #: truncated traceback) when ``error`` is set
    error_info: Optional[JobError] = None
    #: True when the per-job module budget ran dry mid-compile
    budget_exhausted: bool = False
    #: executions this outcome took, counting pool-level retries
    attempts: int = 1
    #: the attempt's obs payload under a :class:`Capture`:
    #: ``{"pid", "records", "metrics", "spans", "wall_base"}`` — the
    #: picklable form the service replays into the submitting
    #: process's sink and registry, and a telemetry session stitches
    #: into the batch-wide trace
    captured: Optional[dict[str, Any]] = None

    def __getstate__(self):
        # The live module (attached for inline callers) is an IR object
        # graph; it never crosses a process boundary — workers send the
        # printed IR inside the entry instead.
        state = dict(self.__dict__)
        state.pop("module", None)
        return state


#: set by the pool's worker initializer: a ``worker-kill`` chaos fault
#: really exits the process there, but only raises in-process
_POOL_WORKER = False


def mark_pool_worker() -> None:
    """ProcessPoolExecutor initializer: this process is expendable."""
    global _POOL_WORKER
    _POOL_WORKER = True


def _fire_worker_chaos(job: CompileJob) -> None:
    """Worker-side chaos sites, decided per (seed, site, key, attempt)."""
    plan = job.chaos
    if plan is None:
        return
    key = job.cache_key()
    if plan.fires("worker-kill", key, job.attempt):
        if _POOL_WORKER:
            os._exit(33)  # abrupt death: the parent sees a broken pool
        raise InjectedServiceFault("worker-kill")
    if plan.fires("worker-hang", key, job.attempt):
        time.sleep(plan.duration("worker-hang"))


def _failure(job: CompileJob, kind: str, message: str,
             started: float, traceback: str = "") -> JobOutcome:
    try:
        key = job.cache_key()
    except Exception:
        key = ""
    try:
        functions = tuple(_load_module(job).functions)
    except Exception:
        functions = ()
    error = JobError(
        kind=kind, message=message, job_name=job.name,
        config_name=job.config.name, cache_key=key,
        functions=functions, attempt=job.attempt, traceback=traceback,
    )
    return JobOutcome(
        entry=None,
        worker_seconds=time.perf_counter() - started,
        error=error.render(),
        error_info=error,
    )


def _traceback_tail(limit: int = 1200) -> str:
    text = _traceback.format_exc().strip()
    if len(text) > limit:
        text = "... " + text[-limit:]
    return text.replace("\n", " | ")


class _Capturing:
    """One job attempt under its own observability state (see
    :class:`Capture`).  The previous state comes back on
    :meth:`finish`, so inline (serial) execution leaves the caller's
    pillars as they were — which is what makes serial and pool
    batches publish and stream the same things."""

    def __init__(self, job: CompileJob, capture: Capture):
        from ..obs import metrics as _metrics
        from ..obs import records as _records
        from ..obs import tracing as _tracing
        from ..obs.metrics import MetricsRegistry
        from ..obs.records import ListSink
        from ..obs.tracing import Tracer

        self._metrics = _metrics
        self._records = _records
        self._tracing = _tracing
        self.sink = ListSink(capture.records)
        self._prev_sink = _records.set_sink(self.sink)
        self.registry = None
        if capture.metrics:
            self.registry = MetricsRegistry()
            self._prev_registry = _metrics.swap_registry(self.registry)
            self._prev_publish = _metrics.publishing()
            _metrics.set_publishing(True)
        self.tracer = None
        if capture.spans:
            self._prev_tracer = _tracing.active()
            self.tracer = _tracing.install(Tracer())
            self._span = _tracing.span(
                "job.attempt", job=job.name, config=job.config.name,
                attempt=job.attempt, backend=job.backend,
            ).__enter__()
            # Wall-clock time at this tracer's epoch: perf_counter
            # epochs are per-process, so the stitcher rebases span
            # offsets onto the parent timeline through this value.
            self.wall_base = (
                time.time() - (time.perf_counter() - self.tracer.epoch)
            )

    def finish(self) -> dict[str, Any]:
        from ..obs.export import spans_to_payload

        payload: dict[str, Any] = {
            "pid": os.getpid(), "records": self.sink.records,
            "metrics": {}, "spans": [], "wall_base": 0.0,
        }
        self._records.set_sink(self._prev_sink)
        if self.registry is not None:
            self._metrics.swap_registry(self._prev_registry)
            self._metrics.set_publishing(self._prev_publish)
            payload["metrics"] = self.registry.typed_snapshot()
        if self.tracer is not None:
            self._span.__exit__(None, None, None)
            if self._prev_tracer is not None:
                self._tracing.install(self._prev_tracer)
            else:
                self._tracing.uninstall()
            payload["spans"] = spans_to_payload(self.tracer)
            payload["wall_base"] = self.wall_base
        return payload


def execute_job(job: CompileJob,
                capture: Optional[Capture] = None) -> JobOutcome:
    """Compile every function of ``job``'s module; never raises.

    The guard contains per-pass failures inside the job; this wrapper
    contains everything else (front-end errors, strict-mode escalations)
    so one poisoned kernel cannot take down a batch.  Failures come back
    with a structured :class:`JobError` so a batch report can attribute
    them without guessing.  A ``capture`` wraps the whole attempt, so
    failure outcomes carry their payload too (a *really* killed worker
    ships nothing; its lane simply ends).
    """
    started = time.perf_counter()
    capturing = _Capturing(job, capture) if capture is not None else None
    try:
        try:
            _fire_worker_chaos(job)
            outcome = _execute_job_inner(job)
        except InjectedServiceFault as fault:
            # The in-process stand-in for a killed worker: same
            # retryable classification as a real worker death.
            outcome = _failure(job, ERROR_WORKER_CRASHED, str(fault),
                               started)
        except BackendMismatchError as exc:
            # Compiled tier != interpreter: permanent — the ladder
            # sheds the job to the interpreter instead of retrying.
            outcome = _failure(job, ERROR_BACKEND_MISMATCH, str(exc),
                               started)
        except BackendUnsupportedError as exc:
            outcome = _failure(job, ERROR_BACKEND_UNSUPPORTED,
                               str(exc), started)
        except Exception as exc:  # worker boundary: contain everything
            outcome = _failure(job, ERROR_COMPILE,
                               f"{type(exc).__name__}: {exc}", started,
                               traceback=_traceback_tail())
        else:
            outcome.worker_seconds = time.perf_counter() - started
    finally:
        if capturing is not None:
            payload = capturing.finish()
    if capturing is not None:
        outcome.captured = payload
    return outcome


def _execute_job_inner(job: CompileJob) -> JobOutcome:
    # Imported here (not module top) to keep worker start cheap when the
    # pool uses the spawn start method.
    from ..opt.pipelines import compile_module

    module = _load_module(job)
    target = TargetCostModel(job.target_desc)
    config = job.config
    module_meter = (
        ModuleMeter(config.budget)
        if config.budget is not None and config.budget.has_module_caps
        else None
    )
    guard = None if job.guard == "off" else job.guard

    merged = VectorizationReport(job.name, config.name)
    remarks: list[dict[str, Any]] = []
    # Each function's oracle keeps its verified runs for the backend
    # cross-check; they live as long as this job does.
    oracles: dict[str, Optional[DifferentialOracle]] = {}
    # per function, the remark saying why its oracle was skipped
    oracle_remarks: dict[str, list[dict[str, Any]]] = {}

    def oracle_for(func) -> Optional[DifferentialOracle]:
        oracles[func.name] = _oracle_for(
            job, module, func, target,
            oracle_remarks.setdefault(func.name, []),
        )
        return oracles[func.name]

    rolled_back: list[str] = []
    compile_seconds = 0.0
    static_cost = 0

    with span("job.compile", job=job.name, config=config.name):
        results = compile_module(
            module, config, target, guard=guard,
            module_meter=module_meter, oracles=oracle_for,
        )
    for result in results:
        name = result.function.name
        merged.merge(result.report)
        remarks.extend(oracle_remarks.get(name, ()))
        remarks.extend(remark_to_dict(r) for r in result.remarks)
        rolled_back.extend(f"{name}:{pass_name}"
                           for pass_name in result.rolled_back)
        compile_seconds += result.compile_seconds
        static_cost += result.static_cost

    entry_backend, generated_source = _backend_stage(
        job, module, target, remarks, oracles
    )

    entry = CacheEntry(
        key=job.cache_key(),
        name=job.name,
        config_name=config.name,
        ir_text=print_module(module),
        report=report_to_dict(merged),
        remarks=remarks,
        rolled_back=rolled_back,
        compile_seconds=compile_seconds,
        static_cost=static_cost,
        backend=entry_backend,
        generated_source=generated_source,
    )
    outcome = JobOutcome(entry=entry)
    outcome.budget_exhausted = (
        module_meter is not None and module_meter.exhausted
    )
    # Keep the live module attached for inline (same-process) callers so
    # they can interpret it without re-parsing; __getstate__ strips it
    # before a process boundary.
    outcome.module = module  # type: ignore[attr-defined]
    return outcome


def _load_module(job: CompileJob) -> Module:
    if job.source is not None:
        return compile_kernel_source(job.source, job.name)
    return parse_module(job.ir)  # type: ignore[arg-type]


def _oracle_for(job: CompileJob, module: Module, func,
                target: TargetCostModel,
                remarks: Optional[list[dict[str, Any]]] = None
                ) -> Optional[DifferentialOracle]:
    if job.verify_runs <= 0:
        return None
    args = job.args or {}
    missing = [a.name for a in func.arguments if a.name not in args]
    if missing:
        # Without runtime arguments the oracle cannot execute the
        # function; skip verification rather than report a spurious
        # mismatch — but say so, instead of silently not verifying.
        if remarks is not None:
            remarks.append(remark_to_dict(Remark(
                Severity.WARNING, "oracle",
                "differential verification skipped: no runtime value for "
                "argument(s) " + ", ".join(f"%{name}" for name in missing),
                function=func.name, pass_name="oracle", phase="oracle",
                remediation="pass --arg NAME=VALUE for every argument",
            )))
        return None
    return DifferentialOracle.sweeping(
        module, func, args=args, runs=job.verify_runs,
        base_seed=job.verify_seed, target=target,
    )


def _backend_stage(job: CompileJob, module: Module,
                   target: TargetCostModel,
                   remarks: list[dict[str, Any]],
                   oracles: dict[str, Optional[DifferentialOracle]]
                   ) -> tuple[str, str]:
    """Emit + differentially validate the compiled tier.

    Returns ``(entry_backend, generated_source)``.  ``compiled`` jobs
    fail hard (:class:`BackendUnsupportedError`) when the emitter
    refuses any function; ``auto`` jobs degrade to the interpreter with
    a structured ``backend`` remark.  When the job carries verify runs,
    every supported function is swept compiled-vs-interpreted with
    *exact* comparison; any divergence raises
    :class:`BackendMismatchError` (permanent — see the ladder).  The
    interpreter side of a sweep is the function's oracle run when
    :meth:`DifferentialOracle.runs_for` allows it.
    """
    if job.backend == "interp":
        return "interp", ""
    # Imported lazily for the same worker-start reason as the pipelines.
    from ..backend.emit import emit_module
    from ..backend.validate import cross_check

    def fallback_remark(function: str, construct: str,
                        detail: str) -> None:
        remarks.append(remark_to_dict(Remark(
            Severity.NOTE, "backend",
            f"compiled tier unavailable ({construct}): {detail}; runs "
            "fall back to the interpreter",
            function=function, pass_name="backend", phase="backend",
            remediation="use --backend=interp to silence, or keep "
                        "auto and accept interpreter speed here",
        )))

    try:
        with span("backend.emit", job=job.name):
            emitted = emit_module(module, target)
    except Exception as exc:
        if job.backend == "compiled":
            raise BackendUnsupportedError(
                f"emit failed for @{job.name}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        fallback_remark(job.name, "emit-error", str(exc))
        return "interp", ""

    unsupported = dict(emitted.unsupported)
    if unsupported:
        details = "; ".join(
            f"@{name}: {why['construct']} ({why['detail']})"
            for name, why in sorted(unsupported.items())
        )
        if job.backend == "compiled":
            raise BackendUnsupportedError(
                f"backend=compiled cannot serve {details}"
            )
        for name, why in sorted(unsupported.items()):
            fallback_remark(name, why["construct"], why["detail"])

    if job.verify_runs > 0:
        args = job.args or {}
        for func in module.functions.values():
            if func.name in unsupported:
                continue
            if any(a.name not in args for a in func.arguments):
                continue  # the oracle already remarked the skip
            oracle = oracles.get(func.name)
            result = cross_check(
                module, func, target, base_args=args,
                runs=job.verify_runs, base_seed=job.verify_seed,
                backend="compiled", source=emitted.source,
                verified=(oracle.runs_for(func, target)
                          if oracle is not None else ()),
            )
            if not result.ok:
                raise BackendMismatchError(
                    f"@{func.name}: {result.render()}"
                )

    return job.backend, emitted.source


__all__ = [
    "BackendMismatchError",
    "BackendUnsupportedError",
    "Capture",
    "CompileJob",
    "execute_job",
    "JOB_BACKENDS",
    "job_for_kernel",
    "job_for_module",
    "job_for_source",
    "JobOutcome",
    "mark_pool_worker",
    "PIPELINE_NAME",
]
