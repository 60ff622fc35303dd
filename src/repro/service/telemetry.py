"""Service-wide telemetry: one session per observed batch.

A :class:`TelemetrySession` is the parent-process half of the
cross-worker telemetry pipeline (``lslp batch --telemetry-out DIR``):

* it owns the batch-wide :class:`~repro.obs.export.TraceStitcher`,
  into which every attempt's captured payload is absorbed — a final
  :class:`~repro.service.jobs.JobOutcome`'s and a retried attempt's
  (shipped on the pool's ``retry`` event) alike: the attempt's spans
  land in its worker's own process lane and its records append to the
  event stream (the service merges the payload's metrics into the
  parent registry for every batch, telemetry or not);
* it records the **job timeline**: every lifecycle milestone the
  service reports (queued → hit/dispatched → retry/timeout → rung →
  completed/failed/refused; each shed step is one ``rung`` event, or
  ``refused`` at the bottom of the ladder) becomes one ``job`` record
  — appended to the event stream and streamed to the record sink —
  *and* one async arrow on the trace's job track, so a whole
  chaos-recovered batch opens as a single Perfetto timeline;
* :meth:`close` writes the four artifacts — ``trace.json`` (the
  stitched Chrome trace), ``metrics.prom`` (Prometheus text
  exposition, breaker state included), ``metrics.json`` (canonical
  JSON) and ``events.jsonl`` (the job timeline plus every
  worker-captured record) — all of which
  ``python -m repro.obs.validate`` checks in CI's telemetry-smoke.

The session piggybacks on the process-wide obs pillars: it enables
metric publishing for its lifetime and installs a tracer only when the
command did not already (``--trace-out`` composes — the same tracer
feeds both artifacts).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

from ..obs import metrics as _metrics
from ..obs import records as _records
from ..obs import tracing as _tracing
from ..obs.export import (
    SERVICE_PID,
    TraceStitcher,
    render_metrics_json,
    render_prometheus,
    spans_to_payload,
)

#: the artifact filenames :meth:`TelemetrySession.close` writes
TELEMETRY_ARTIFACTS = (
    "trace.json", "metrics.prom", "metrics.json", "events.jsonl",
)

#: job milestones that end the job's async arrow on the trace
_TERMINAL_EVENTS = frozenset(
    {"hit", "completed", "failed", "refused"}
)


class TelemetrySession:
    """Collects one batch's cross-process telemetry and writes the
    artifact directory.  One session may span several
    ``compile_batch`` calls (a long-lived service); artifacts cover
    everything since construction."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._prev_publish = _metrics.publishing()
        _metrics.set_publishing(True)
        self._own_tracer = _tracing.active() is None
        self.tracer = (_tracing.active() if not self._own_tracer
                       else _tracing.install())
        #: wall-clock time at the parent tracer's epoch — the shared
        #: origin every worker payload is rebased against
        self.wall_base = (
            time.time() - (time.perf_counter() - self.tracer.epoch)
        )
        self.stitcher = TraceStitcher(self.wall_base)
        #: the ``events.jsonl`` stream: job-timeline records plus
        #: worker-captured records, in service observation order
        self.events: list[dict[str, Any]] = []
        self.breaker_states: dict[str, Any] = {}
        self.closed = False

    # ------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the parent tracer's epoch (the trace origin)."""
        return time.perf_counter() - self.tracer.epoch

    def wants(self, type_: str) -> bool:
        """The event stream takes every record type but the dumps,
        which have artifacts of their own."""
        return type_ not in _records.DUMP_TYPES

    def _record(self, offset: float, **fields: Any) -> None:
        """One ``job`` record, appended to the event stream and
        streamed, as the same dict, to the record sink."""
        record = {"type": "job", "pass": "service",
                  "t_ms": round(offset * 1e3, 3), **fields}
        self.events.append(record)
        _records.forward(record)

    def job_event(self, index: int, job, event: str,
                  **attrs: Any) -> None:
        """One job-lifecycle milestone: a ``job`` record and an async
        point on the trace's job track."""
        offset = self.now()
        self._record(offset, event=event, index=index, job=job.name,
                     config=job.config.name, function=job.name, **attrs)
        name = f"job:{job.name}/{job.config.name}"
        if event == "queued":
            self.stitcher.job_begin(index, name, self.wall_base,
                                    offset, config=job.config.name)
        elif event in _TERMINAL_EVENTS:
            self.stitcher.job_point(index, name, event, self.wall_base,
                                    offset, **attrs)
            self.stitcher.job_end(index, name, self.wall_base, offset)
        else:
            self.stitcher.job_point(index, name, event, self.wall_base,
                                    offset, **attrs)

    def service_event(self, event: str, **attrs: Any) -> None:
        """A batch-scoped incident with no single job (pool rebuilds)."""
        self._record(self.now(), event=event, index=-1, job="",
                     config="", function="", **attrs)

    # ------------------------------------------------------------------

    def absorb(self, index: int, payload: dict[str, Any]) -> None:
        """Stitch one job attempt's captured payload: spans into the
        worker's process lane, records into the event stream."""
        lane = self.stitcher.lane_for(payload["pid"])
        self.stitcher.add_spans(
            lane, payload["spans"], payload["wall_base"],
            extra_attrs={"job_index": index},
        )
        self.events.extend(record for record in payload["records"]
                           if self.wants(record["type"]))

    # ------------------------------------------------------------------

    def close(self, breaker_states: Optional[dict] = None
              ) -> dict[str, str]:
        """Write the artifact directory and restore the obs pillars;
        returns ``{artifact name: path}``.  Idempotent."""
        if self.closed:
            return {}
        self.closed = True
        if breaker_states is not None:
            self.breaker_states = breaker_states
        # The parent's own spans (service.lookup/compile/store, and
        # anything the CLI traced) form the service lane.
        self.stitcher.add_spans(
            SERVICE_PID, spans_to_payload(self.tracer), self.wall_base,
        )
        os.makedirs(self.out_dir, exist_ok=True)
        registry = _metrics.registry()
        artifacts = {
            "trace.json": self.stitcher.to_chrome(),
            "metrics.prom": render_prometheus(
                registry, breaker_states=self.breaker_states,
            ),
            "metrics.json": render_metrics_json(registry) + "\n",
            "events.jsonl": "".join(
                json.dumps(event, sort_keys=True,
                           separators=(",", ":")) + "\n"
                for event in self.events
            ),
        }
        paths: dict[str, str] = {}
        for name, text in artifacts.items():
            path = os.path.join(self.out_dir, name)
            with open(path, "w") as handle:
                handle.write(text)
            paths[name] = path
        if self._own_tracer:
            _tracing.uninstall()
        _metrics.set_publishing(self._prev_publish)
        return paths


__all__ = ["TELEMETRY_ARTIFACTS", "TelemetrySession"]
