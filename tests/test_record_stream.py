"""One record stream, one way home from a worker.

Every record type — decisions, remarks, ``plan.dump`` entries and
``slp.graph`` DOT text — flows through the one sink slot, and every
batch job ships its attempt's records and metrics home the same way
whether it ran inline or in a pool worker.  So what a batch streams
does not depend on ``--jobs`` or on a telemetry session, and the CLI
routes each type to exactly one artifact.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.kernels.catalog import ALL_KERNELS
from repro.obs import ListSink, metrics, records
from repro.service import (
    CompilationService,
    job_for_kernel,
    TelemetrySession,
)
from repro.slp.vectorizer import VectorizerConfig

KERNELS = list(ALL_KERNELS.values())[:4]
CONFIGS = (VectorizerConfig.slp(), VectorizerConfig.lslp())
CLI_KERNELS = ",".join(kernel.name for kernel in KERNELS)


def _jobs():
    return [job_for_kernel(kernel, config)
            for kernel in KERNELS for config in CONFIGS]


def _observed_batch(workers, telemetry=None):
    """Records and compile counters one batch streams into a
    ``ListSink`` with metric publishing on."""
    obs.reset()
    sink = ListSink()
    records.set_sink(sink)
    metrics.set_publishing(True)
    try:
        batch = CompilationService(
            jobs=workers, telemetry=telemetry,
        ).compile_batch(_jobs())
        counters = {
            name: value
            for name, value in metrics.registry().snapshot().items()
            if not name.startswith(("service.", "cache."))
        }
    finally:
        records.set_sink(None)
        metrics.set_publishing(False)
    assert batch.ok
    return sink.records, counters


def _compile_records(streamed):
    return [record for record in streamed if record["type"] != "job"]


def test_serial_and_pool_batches_stream_the_same_records():
    serial, serial_counters = _observed_batch(1)
    pooled, pooled_counters = _observed_batch(4)
    assert serial == pooled
    types = {record["type"] for record in serial}
    assert {"plan.dump", "slp.graph", "plan", "reorder"} <= types
    assert serial_counters == pooled_counters
    assert serial_counters["slp.trees_built"] > 0


@pytest.mark.parametrize("workers", (1, 2))
def test_telemetry_leaves_the_compile_records_alone(tmp_path, workers):
    plain, plain_counters = _observed_batch(workers)
    session = TelemetrySession(str(tmp_path / "tele"))
    try:
        observed, observed_counters = _observed_batch(workers, session)
    finally:
        session.close()
    assert _compile_records(observed) == plain
    assert observed_counters == plain_counters
    # the session's events take every type but the dumps
    dumped = {record["type"] for record in session.events} \
        & set(records.DUMP_TYPES)
    assert not dumped


def test_one_job_record_per_milestone(tmp_path):
    session = TelemetrySession(str(tmp_path / "tele"))
    try:
        streamed, _ = _observed_batch(1, session)
    finally:
        session.close()
    jobs = [record for record in streamed if record["type"] == "job"]
    assert jobs
    assert jobs == [record for record in session.events
                    if record["type"] == "job"]
    assert all(record["pass"] == "service" and "t_ms" in record
               for record in jobs)


def _cli_batch(tmp_path, tag, *extra):
    paths = {name: tmp_path / f"{tag}.{name}"
             for name in ("remarks", "plans", "graphs")}
    assert main([
        "batch", "catalog", "--kernels", CLI_KERNELS,
        "--configs", "slp,lslp", "--cache", "off",
        "--remarks-out", str(paths["remarks"]),
        "--plan-dump", str(paths["plans"]),
        "--dump-slp-graph", str(paths["graphs"]),
        *extra,
    ]) == 0
    return {name: path.read_text() for name, path in paths.items()}


def test_cli_batch_artifacts_do_not_depend_on_jobs(tmp_path, capsys):
    serial = _cli_batch(tmp_path, "serial", "--jobs", "1")
    pooled = _cli_batch(tmp_path, "pool", "--jobs", "2")
    assert serial == pooled
    streamed = [json.loads(line)
                for line in serial["remarks"].splitlines()]
    assert streamed
    assert not {record["type"] for record in streamed} \
        & set(records.DUMP_TYPES)
    plans = [json.loads(line) for line in serial["plans"].splitlines()]
    assert plans and all("type" not in plan and "pass" not in plan
                         for plan in plans)
    # graphs are named by their position in the stream
    headers = [line for line in serial["graphs"].splitlines()
               if line.startswith("digraph")]
    assert headers[0].endswith('/store0" {')
    assert len(set(headers)) == len(headers)


def test_cli_remarks_out_job_records_match_events(tmp_path, capsys):
    remarks = tmp_path / "r.jsonl"
    tele = tmp_path / "tele"
    assert main([
        "batch", "catalog", "--kernels", CLI_KERNELS,
        "--configs", "lslp", "--cache", "off", "--jobs", "2",
        "--remarks-out", str(remarks), "--telemetry-out", str(tele),
    ]) == 0

    def jobs(path):
        return [record for record in map(json.loads,
                                          path.read_text().splitlines())
                if record["type"] == "job"]

    assert jobs(remarks)
    assert jobs(remarks) == jobs(tele / "events.jsonl")
