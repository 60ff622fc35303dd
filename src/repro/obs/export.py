"""Telemetry export: metrics exposition and cross-process trace
stitching.

Two halves, both pure renderers over data the other pillars already
collect:

* **Metrics exposition** — :func:`render_prometheus` turns a
  :class:`~repro.obs.metrics.MetricsRegistry` into Prometheus text
  format (counters as ``_total``, histograms with the fixed
  :data:`~repro.obs.metrics.DEFAULT_BUCKETS` bounds as cumulative
  ``_bucket{le=...}`` series, circuit-breaker state as a
  ``{shard=...}``-labeled gauge); :func:`render_metrics_json` is the
  canonical-JSON sibling.  Both are deterministic: name-sorted, stable
  number formatting, no timestamps.
* **Trace stitching** — pool workers cannot append to the parent's
  tracer, so under telemetry each job attempt serializes its spans with
  :func:`spans_to_payload` and ships them home on the
  :class:`~repro.service.jobs.JobOutcome`.  The parent's
  :class:`TraceStitcher` merges every process's spans into **one**
  Chrome ``trace_event`` document: the service is pid 1, each worker
  OS process gets its own lane (pid 2, 3, ... in order of first
  appearance), and per-job async arrows (``b``/``n``/``e`` events)
  cover queued → dispatched → attempt N → rung → cached, so a whole
  chaos-recovered batch opens as a single Perfetto timeline.

Cross-process timestamps: ``perf_counter`` epochs are per-process, so
every span payload carries a ``wall_base`` — the ``time.time()`` value
at its tracer's epoch — and the stitcher places spans at
``(wall_base - parent_wall_base) + offset``.  Good to well under a
millisecond on one machine, which is all a batch timeline needs.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .metrics import MetricsRegistry
from .tracing import Tracer

#: the parent (service) process's lane in a stitched trace
SERVICE_PID = 1
#: tid within the service lane that carries the per-job async arrows
JOB_TRACK_TID = 2

#: numeric encoding of circuit-breaker states for the breaker gauge
BREAKER_STATE_VALUES = {"closed": 0, "open": 1, "half-open": 2}

#: every exposed metric name is prefixed with this namespace
PROM_PREFIX = "lslp_"


# ---------------------------------------------------------------------------
# Metrics exposition
# ---------------------------------------------------------------------------


def prometheus_name(name: str) -> str:
    """``service.job_latency_seconds`` → ``lslp_service_job_latency_seconds``."""
    safe = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return PROM_PREFIX + safe


def _format_value(value: Any) -> str:
    """Stable sample formatting: integers bare, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry,
                      breaker_states: Optional[dict] = None) -> str:
    """The registry in Prometheus text exposition format.

    Deterministic: metrics name-sorted, each preceded by ``# HELP`` /
    ``# TYPE``; counters gain the conventional ``_total`` suffix;
    histograms emit cumulative ``_bucket{le="..."}`` series over the
    fixed bounds plus ``_sum``/``_count``.  ``breaker_states`` (the
    :meth:`~repro.service.resilience.CircuitBreaker.snapshot` dict)
    renders as one ``lslp_service_breaker_state{shard="..."}`` gauge
    per config shard.
    """
    lines: list[str] = []
    for name, entry in registry.typed_snapshot().items():
        kind, value = entry["kind"], entry["value"]
        exposed = prometheus_name(name)
        if kind == "counter":
            exposed += "_total"
        lines.append(f"# HELP {exposed} {name}")
        lines.append(f"# TYPE {exposed} "
                     f"{'histogram' if kind == 'histogram' else kind}")
        if kind == "histogram":
            for bound, cumulative in value["buckets"].items():
                lines.append(
                    f'{exposed}_bucket{{le="{bound}"}} {cumulative}'
                )
            lines.append(f"{exposed}_sum {_format_value(value['sum'])}")
            lines.append(f"{exposed}_count {value['count']}")
        else:
            lines.append(f"{exposed} {_format_value(value)}")
    if breaker_states:
        exposed = prometheus_name("service.breaker.state")
        lines.append(f"# HELP {exposed} "
                     f"circuit-breaker state per config shard "
                     f"(0=closed 1=open 2=half-open)")
        lines.append(f"# TYPE {exposed} gauge")
        for shard in sorted(breaker_states):
            state = breaker_states[shard].get("state", "closed")
            lines.append(
                f'{exposed}{{shard="{shard}"}} '
                f"{BREAKER_STATE_VALUES.get(state, 0)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_json(registry: MetricsRegistry) -> str:
    """The registry snapshot as one canonical-JSON document (sorted
    keys, compact separators) — ``metrics.json`` in a telemetry dir,
    and exactly what ``repro.obs.validate --stats`` checks."""
    return json.dumps(registry.snapshot(), sort_keys=True,
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Span payloads (the picklable form that crosses the process boundary)
# ---------------------------------------------------------------------------


def spans_to_payload(tracer: Tracer) -> list[dict[str, Any]]:
    """Every span of ``tracer`` as plain dicts, start times rebased to
    the tracer's epoch so the payload is process-relative."""
    return [
        {
            "name": span.name,
            "index": span.index,
            "depth": span.depth,
            "parent": span.parent,
            "start": span.start - tracer.epoch,
            "wall": span.wall,
            "cpu": span.cpu,
            "attrs": dict(span.attrs),
        }
        for span in tracer.spans
    ]


# ---------------------------------------------------------------------------
# Trace stitching
# ---------------------------------------------------------------------------


class TraceStitcher:
    """Merges spans from many processes into one Chrome trace.

    ``base_wall`` is the parent's wall-clock time (``time.time()``) at
    its tracer epoch; every added span set carries its own
    ``wall_base`` and lands on the shared timeline at the difference.
    """

    def __init__(self, base_wall: float):
        self.base_wall = base_wall
        self.events: list[dict[str, Any]] = []
        self._lanes: dict[Any, int] = {}
        self._add_process(SERVICE_PID, "service", 0)
        self._thread_name(SERVICE_PID, JOB_TRACK_TID, "jobs")

    # -- lanes ---------------------------------------------------------

    def _add_process(self, pid: int, name: str, sort_index: int) -> None:
        self.events.append({"ph": "M", "name": "process_name",
                            "pid": pid, "tid": 0,
                            "args": {"name": name}})
        self.events.append({"ph": "M", "name": "process_sort_index",
                            "pid": pid, "tid": 0,
                            "args": {"sort_index": sort_index}})

    def _thread_name(self, pid: int, tid: int, name: str) -> None:
        self.events.append({"ph": "M", "name": "thread_name",
                            "pid": pid, "tid": tid,
                            "args": {"name": name}})

    def lane_for(self, worker_key: Any) -> int:
        """A stable per-worker lane pid, assigned in order of first
        appearance (``worker_key`` is the worker's OS pid)."""
        lane = self._lanes.get(worker_key)
        if lane is None:
            lane = SERVICE_PID + 1 + len(self._lanes)
            self._lanes[worker_key] = lane
            self._add_process(
                lane,
                f"worker-{lane - SERVICE_PID} (pid {worker_key})",
                lane,
            )
        return lane

    @property
    def worker_lanes(self) -> dict[Any, int]:
        return dict(self._lanes)

    # -- spans ---------------------------------------------------------

    def _ts(self, wall_base: float, offset: float) -> float:
        return round(((wall_base - self.base_wall) + offset) * 1e6, 3)

    def add_spans(self, pid: int, spans: list[dict[str, Any]],
                  wall_base: float, tid: int = 1,
                  extra_attrs: Optional[dict[str, Any]] = None) -> None:
        """Append one process's span payload as complete events."""
        for span in spans:
            args = dict(span["attrs"],
                        cpu_us=round(span["cpu"] * 1e6, 3))
            if extra_attrs:
                args.update(extra_attrs)
            self.events.append({
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": self._ts(wall_base, span["start"]),
                "dur": round(span["wall"] * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })

    def add_tracer(self, pid: int, tracer: Tracer,
                   wall_base: float) -> None:
        self.add_spans(pid, spans_to_payload(tracer), wall_base)

    # -- per-job async arrows ------------------------------------------

    def job_begin(self, job_id: int, name: str, wall_base: float,
                  offset: float, **attrs: Any) -> None:
        self._async("b", job_id, name, wall_base, offset, attrs)

    def job_point(self, job_id: int, name: str, point: str,
                  wall_base: float, offset: float,
                  **attrs: Any) -> None:
        self._async("n", job_id, name, wall_base, offset,
                    dict(attrs, point=point))

    def job_end(self, job_id: int, name: str, wall_base: float,
                offset: float, **attrs: Any) -> None:
        self._async("e", job_id, name, wall_base, offset, attrs)

    def _async(self, ph: str, job_id: int, name: str, wall_base: float,
               offset: float, attrs: dict[str, Any]) -> None:
        self.events.append({
            "name": name,
            "cat": "job",
            "ph": ph,
            "id": f"0x{job_id:x}",
            "ts": self._ts(wall_base, offset),
            "pid": SERVICE_PID,
            "tid": JOB_TRACK_TID,
            "args": attrs,
        })

    # ------------------------------------------------------------------

    def to_chrome(self) -> str:
        """The stitched document (metadata first, then events in
        insertion order — Perfetto sorts by timestamp itself)."""
        return json.dumps(
            {"traceEvents": self.events, "displayTimeUnit": "ms"},
            sort_keys=True,
        )


__all__ = [
    "BREAKER_STATE_VALUES",
    "JOB_TRACK_TID",
    "PROM_PREFIX",
    "SERVICE_PID",
    "TraceStitcher",
    "prometheus_name",
    "render_metrics_json",
    "render_prometheus",
    "spans_to_payload",
]
