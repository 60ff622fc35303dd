"""Cross-worker telemetry stitching (``TelemetrySession``): artifact
validity, the serial-vs-pool metric-set contract, and the chaos-batch
stitched-trace acceptance scenario."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro import obs
from repro.costmodel.targets import skylake_like
from repro.kernels.catalog import ALL_KERNELS
from repro.obs import metrics as obs_metrics
from repro.obs.records import RECORD_SCHEMA
from repro.robustness import ServiceFaultPlan, ServiceFaultSpec
from repro.obs.validate import (
    validate_chrome_trace,
    validate_prometheus_text,
    validate_remarks_jsonl,
    validate_stats_json,
)
from repro.service import (
    Capture,
    CompilationService,
    CompileCache,
    execute_job,
    job_for_kernel,
    ResiliencePolicy,
    RetryPolicy,
    TELEMETRY_ARTIFACTS,
    TelemetrySession,
)
from repro.service.resilience import BreakerPolicy
from repro.slp.vectorizer import VectorizerConfig

KERNELS = list(ALL_KERNELS.values())[:2]
CONFIGS = [VectorizerConfig.lslp()]
RETRY = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_cap=0.02)
#: what a telemetry session's batch captures
CAPTURE = Capture(records=frozenset(RECORD_SCHEMA), metrics=True,
                  spans=True)


def _jobs(chaos=None, kernels=KERNELS, configs=CONFIGS):
    jobs = [
        job_for_kernel(kernel, config, skylake_like())
        for kernel in kernels for config in configs
    ]
    if chaos is not None:
        jobs = [replace(job, chaos=chaos) for job in jobs]
    return jobs


def _service(jobs=1, telemetry=None, cache=None):
    return CompilationService(
        cache=cache, jobs=jobs, telemetry=telemetry,
        resilience=ResiliencePolicy(
            retry=RETRY, breaker=BreakerPolicy(failure_threshold=0),
        ),
    )


def _read(paths, name):
    with open(paths[name]) as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Artifacts + job lifecycle
# ---------------------------------------------------------------------------


def test_session_writes_four_valid_artifacts(tmp_path):
    session = TelemetrySession(str(tmp_path / "tele"))
    service = _service(jobs=1, telemetry=session)
    batch = service.compile_batch(_jobs())
    assert batch.ok
    paths = session.close(service.breaker.snapshot())

    assert set(paths) == set(TELEMETRY_ARTIFACTS)
    for name in TELEMETRY_ARTIFACTS:
        assert os.path.exists(paths[name])
    assert validate_chrome_trace(
        _read(paths, "trace.json"),
        require_spans=["job.attempt"],
    ) == []
    assert validate_prometheus_text(
        _read(paths, "metrics.prom"),
        require_metrics=["lslp_service_job_latency_seconds",
                         "lslp_service_queue_wait_seconds"],
    ) == []
    assert validate_stats_json(
        _read(paths, "metrics.json"),
        require_metrics=["service.job_latency_seconds"],
    ) == []
    assert validate_remarks_jsonl(
        _read(paths, "events.jsonl"),
        require_records=["job"],
    ) == []


def test_job_lifecycle_events_cold_then_warm(tmp_path):
    session = TelemetrySession(str(tmp_path / "tele"))
    service = _service(jobs=1, telemetry=session,
                       cache=CompileCache())
    jobs = _jobs()
    assert service.compile_batch(jobs).ok      # cold: compiled
    assert service.compile_batch(jobs).ok      # warm: every job hits
    session.close()

    by_event = {}
    for event in session.events:
        if event.get("type") == "job":
            by_event.setdefault(event["event"], []).append(event)
    # cold pass: queued -> dispatched -> completed for every job
    assert len(by_event["dispatched"]) == len(jobs)
    assert len(by_event["completed"]) == len(jobs)
    # warm pass: the same jobs queued again, then served from cache
    assert len(by_event["queued"]) == 2 * len(jobs)
    assert len(by_event["hit"]) == len(jobs)
    assert all("tier" in event for event in by_event["hit"])


def test_trace_places_worker_spans_in_worker_lanes(tmp_path):
    session = TelemetrySession(str(tmp_path / "tele"))
    service = _service(jobs=1, telemetry=session)
    service.compile_batch(_jobs())
    paths = session.close()

    assert len(session.stitcher.worker_lanes) >= 1
    events = json.loads(_read(paths, "trace.json"))["traceEvents"]
    attempts = [event for event in events
                if event["ph"] == "X"
                and event["name"] == "job.attempt"]
    assert len(attempts) == len(_jobs())
    lanes = set(session.stitcher.worker_lanes.values())
    assert {event["pid"] for event in attempts} <= lanes
    assert all("job_index" in event["args"] for event in attempts)


def test_failed_attempt_still_ships_its_telemetry_payload():
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-kill", rate=1.0),),
        seed=0,
    )
    outcome = execute_job(_jobs(plan)[0], CAPTURE)
    assert outcome.error
    payload = outcome.captured
    assert payload is not None
    assert payload["pid"] == os.getpid()
    assert any(span["name"] == "job.attempt"
               for span in payload["spans"])


def _attempt_spans(paths):
    events = json.loads(_read(paths, "trace.json"))["traceEvents"]
    return [event for event in events
            if event["ph"] == "X" and event["name"] == "job.attempt"]


def test_every_attempt_ships_home_retried_or_timed_out(tmp_path):
    """A retried attempt and a post-hoc timed-out one ship their
    payload too: one ``job.attempt`` span per attempt, their metrics
    merged and their records in the event stream — while only the
    attempt that produced a result replays its records into the sink."""
    from repro.obs import records as obs_records
    from repro.obs.records import ListSink

    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-kill", rate=1.0),),
        seed=0,
    )
    session = TelemetrySession(str(tmp_path / "retry"))
    batch = _service(jobs=1, telemetry=session).compile_batch(
        _jobs(plan))
    paths = session.close()
    assert batch.ok and batch.stats.retries == len(_jobs())
    assert (len(_attempt_spans(paths))
            == len(_jobs()) + batch.stats.retries)

    # The full, reduced and scalar attempts all time out post hoc; the
    # scalar attempt's refusal is the job's result.
    obs.reset()
    sink = ListSink()
    previous = obs_records.set_sink(sink)
    session = TelemetrySession(str(tmp_path / "timeout"))
    service = CompilationService(
        cache=None, jobs=1, telemetry=session,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=0), job_timeout=1e-9,
            breaker=BreakerPolicy(failure_threshold=0),
        ),
    )
    try:
        [result] = service.compile_batch(_jobs()[:1]).results
    finally:
        obs_records.set_sink(previous)
        paths = session.close()
    assert result.rung == "refuse"
    assert len(_attempt_spans(paths)) == 3
    # the vectorizing attempts' work reached the registry and the event
    # stream, but not the sink
    assert "slp.trees_built" in obs_metrics.registry().snapshot()
    assert any(event["type"] == "seed" for event in session.events)
    assert not any(record["type"] == "seed" for record in sink.records)


def test_execute_job_capture_restores_obs_globals():
    from repro.obs import records as obs_records
    from repro.obs import tracing as obs_tracing

    outcome = execute_job(_jobs()[0], CAPTURE)
    assert outcome.entry is not None
    assert outcome.captured is not None
    assert obs_tracing.active() is None
    assert not obs_metrics.publishing()
    assert len(obs_metrics.registry()) == 0
    assert obs_records.active_sink() is None


# ---------------------------------------------------------------------------
# Satellite: serial and pooled batches publish the same metric set
# ---------------------------------------------------------------------------


def test_serial_and_pool_batches_publish_identical_metric_sets(
        tmp_path):
    def metric_names(workers, sub):
        obs.reset()
        session = TelemetrySession(str(tmp_path / sub))
        service = _service(jobs=workers, telemetry=session)
        batch = service.compile_batch(_jobs())
        assert batch.ok
        batch.stats.publish()
        names = set(obs_metrics.registry().snapshot())
        session.close()
        return names

    serial = metric_names(1, "serial")
    pooled = metric_names(2, "pool")
    assert serial == pooled
    assert "service.job_latency_seconds" in serial
    assert "service.queue_wait_seconds" in serial


# ---------------------------------------------------------------------------
# Chaos: a kill-swept pool batch still stitches into one valid trace
# ---------------------------------------------------------------------------


@pytest.mark.chaos
def test_chaos_pool_batch_stitches_one_trace_with_attempt_spans(
        tmp_path):
    """Every first attempt dies inside a real pool worker
    (``os._exit``): the stitched trace must still validate, with one
    lane per worker process that shipped a payload and ``job.attempt``
    spans for the resubmitted (attempt >= 1) executions."""
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-kill", rate=1.0),),
        seed=0,
    )
    jobs = _jobs(plan, kernels=list(ALL_KERNELS.values())[:4])
    session = TelemetrySession(str(tmp_path / "tele"))
    service = _service(jobs=2, telemetry=session)
    batch = service.compile_batch(jobs)
    assert batch.ok
    assert len(batch.results) == len(jobs)      # no lost jobs
    paths = session.close(service.breaker.snapshot())

    assert validate_chrome_trace(_read(paths, "trace.json")) == []
    events = json.loads(_read(paths, "trace.json"))["traceEvents"]

    # one process lane per worker pid that shipped a payload, each
    # with its own process_name metadata
    lanes = session.stitcher.worker_lanes
    assert len(lanes) >= 1
    named = {event["pid"] for event in events
             if event.get("ph") == "M"
             and event["name"] == "process_name"}
    assert set(lanes.values()) <= named

    # resubmitted jobs appear as attempt >= 1 spans in worker lanes
    resubmitted = [
        event for event in events
        if event["ph"] == "X" and event["name"] == "job.attempt"
        and event["args"].get("attempt", 0) >= 1
    ]
    assert len(resubmitted) == len(jobs)
    assert {event["pid"] for event in resubmitted} <= \
        set(lanes.values())

    # the job track saw the retries the service recovered through
    retries = [event for event in session.events
               if event.get("event") == "retry"]
    assert len(retries) >= 1
    assert batch.stats.retry_succeeded >= 1
