"""repro.obs — unified compiler observability.

Four pillars, each zero-cost when disabled (the default):

1. **Span tracing** (:mod:`~repro.obs.tracing`) — nested
   ``span("slp.build_graph")`` ranges with wall/CPU time and
   attributes, exportable as Chrome ``trace_event`` JSON (Perfetto /
   ``chrome://tracing``) or a readable tree.
2. **Metrics registry** (:mod:`~repro.obs.metrics`) — LLVM
   ``-stats``-style named counters/gauges/histograms
   (``slp.trees_built``, ``lookahead.evals``, ``cache.disk_hits``,
   ``interp.cycles``, ...).
3. **Streaming optimization records** (:mod:`~repro.obs.records`) —
   every vectorization decision, diagnostic remark, candidate-plan
   dump and SLP graph as one record with function/pass/config
   context, through one sink slot.
4. **Interpreter profiling** (:mod:`~repro.obs.profile`) — per-opcode
   and per-instruction cycle attribution, surfacing the
   hot-instruction histogram behind every figure speedup.

The CLI flags ``--trace-out``, ``--stats[=json]``, ``--remarks-out``,
``--plan-dump``, ``--dump-slp-graph`` and ``--profile-interp`` wire
the pillars end to end; see ``docs/OBSERVABILITY.md``.  :func:`reset`
returns the whole layer to its disabled, empty state (tests call it
automatically).
"""

from __future__ import annotations

from . import export, metrics, records, tracing
from .canon import canonicalize_handles
from .metrics import MetricsRegistry
from .profile import InterpProfile
from .records import JsonlSink, ListSink
from .tracing import Span, Tracer, span


def reset() -> None:
    """Disable and empty every pillar: no tracer, no sink, metric
    publication off, registry cleared, context cleared.
    Between-compile (and between-test) isolation."""
    tracing.uninstall()
    records.set_sink(None)
    records.enter(records.ROOT)
    metrics.set_publishing(False)
    metrics.reset()


def enabled() -> bool:
    """True when any pillar is actively collecting."""
    return (tracing.active() is not None
            or records.active_sink() is not None
            or metrics.publishing())


__all__ = [
    "InterpProfile",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "canonicalize_handles",
    "enabled",
    "export",
    "metrics",
    "records",
    "reset",
    "span",
    "tracing",
]
