"""Streaming optimization records: pillar 3 of the observability layer.

Every vectorization decision — a seed found, a group formed or rejected
with its cost delta, an operand reordering, a degrade-to-scalar budget
event — every structured :class:`~repro.robustness.Remark`, every
candidate plan's dump entry and every built SLP graph streams through
one process-wide sink slot as a JSON-serializable dict.  The CLI
installs one sink that routes each record type to one artifact:
``plan.dump`` records to ``--plan-dump``, ``slp.graph`` records to
``--dump-slp-graph`` and every other type, one canonical-JSON line
each, to ``--remarks-out`` (LLVM's ``-fsave-optimization-record``
equivalent).

Decision records go through :func:`emit`; each remark streams once,
from the :meth:`~repro.robustness.DiagnosticEngine.emit` call that
makes it.  A record carries ``function``/``pass``/``config`` from the
ambient :class:`Context` — on the compile path the function's
:class:`~repro.robustness.DiagnosticEngine`, named for the running pass
— so deep layers like the operand reorderer need not thread names.

A sink says which types it takes (``wants``), so records that are
costly to build — a plan's full dump entry, a graph's DOT text — are
built only after :func:`wants` says the installed sink takes them.

Emission is **zero-cost when disabled**: with no sink installed,
:func:`emit` is one global load and a ``None`` check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional, TextIO

#: known record types and the extra keys each must carry
RECORD_SCHEMA: dict[str, tuple[str, ...]] = {
    "seed": ("kind", "vector_length"),
    "group": ("kind", "vector_length", "cost", "vectorized",
              "schedulable"),
    "reorder": ("slots", "lanes", "evals", "strategy"),
    "degrade": ("kind", "detail"),
    "remark": ("severity", "category", "message"),
    # plan/select/apply pipeline (repro.slp.plan): one "plan" record per
    # enumerated candidate, then exactly one "select" or "reject" per
    # candidate once the applier has spoken
    "plan": ("plan_id", "kind", "vector_length", "cost", "schedulable"),
    "select": ("plan_id", "mode"),
    "reject": ("plan_id", "mode", "reason"),
    # module-scope selection (the module-* --plan-select modes): exactly
    # one per compile job, summarizing the pooled candidate set
    "module_select": ("mode", "candidates", "selected"),
    # service telemetry job timeline (repro.service.telemetry): one per
    # lifecycle milestone — queued, hit, dispatched, retry, timeout,
    # rung (one per shed step), completed, failed, refused
    "job": ("event", "index", "job", "config"),
    # if-conversion (repro.opt.ifconvert): one per matched hammock or
    # diamond — event is "converted" or "declined" (reason set on
    # declines only)
    "ifconvert": ("event", "shape", "reason"),
    # loop unrolling (repro.opt.unroll): one per loop left scalar
    # (event "declined") or partially unrolled for unroll-and-SLP
    # (event "partial", reason carries the factor)
    "loop.unroll": ("event", "reason", "header"),
    # the --plan-dump view (repro.slp.plan): one per enumerated
    # candidate plan, its full TreePlan.to_dict() plus the verdict
    "plan.dump": ("plan_id", "kind", "block", "outcome", "reason",
                  "mode"),
    # the --dump-slp-graph view: one per built SLP graph, as an
    # anonymous Graphviz digraph the writer names by stream position
    "slp.graph": ("kind", "dot"),
}

#: record types that feed an artifact of their own rather than the
#: ``--remarks-out`` stream; only a sink that asks for them gets them
DUMP_TYPES: tuple[str, ...] = ("plan.dump", "slp.graph")

#: keys every record carries regardless of type
COMMON_KEYS: tuple[str, ...] = ("type", "function", "pass")


class ListSink:
    """Collects records in memory (tests, the walkthrough, one job
    attempt's capture); ``types`` limits it to those record types."""

    def __init__(self, types: Optional[Iterable[str]] = None):
        self.records: list[dict[str, Any]] = []
        self.types = None if types is None else frozenset(types)

    def wants(self, type_: str) -> bool:
        return self.types is None or type_ in self.types

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes one canonical-JSON line per record to a text stream."""

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.emitted = 0

    def wants(self, type_: str) -> bool:
        return True

    def emit(self, record: dict[str, Any]) -> None:
        self.stream.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
        self.stream.write("\n")
        self.emitted += 1

    def close(self) -> None:
        self.stream.close()


#: the process-wide sink; ``None`` = record streaming disabled
_SINK: Optional[Any] = None


@dataclass
class Context:
    """Who is emitting: the context every record inherits."""

    function: str = ""
    config: str = ""
    pass_name: str = ""


#: the ambient context outside any compile
ROOT = Context()
_CONTEXT: Context = ROOT


def set_sink(sink: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the record sink; returns the
    previous one."""
    global _SINK
    previous, _SINK = _SINK, sink
    return previous


def active_sink() -> Optional[Any]:
    return _SINK


def wants(type_: str) -> bool:
    """True when the installed sink takes ``type_`` records: sites
    whose records are costly to build check this first."""
    sink = _SINK
    return sink is not None and sink.wants(type_)


def current() -> Context:
    """The ambient context records inherit."""
    return _CONTEXT


def enter(context: Context) -> Context:
    """Make ``context`` ambient; returns the previous one, which
    ``enter(previous)`` restores."""
    global _CONTEXT
    previous, _CONTEXT = _CONTEXT, context
    return previous


def emit(type_: str, **fields: Any) -> Optional[dict[str, Any]]:
    """Stream one record; no-op (one flag check) without a sink, and
    when the sink does not take ``type_``.

    ``function``/``pass``/``config`` default from the ambient context;
    explicit keyword values win.
    """
    sink = _SINK
    if sink is None or not sink.wants(type_):
        return None
    context = _CONTEXT
    record: dict[str, Any] = {
        "type": type_,
        "function": context.function,
        "pass": context.pass_name,
    }
    if context.config:
        record["config"] = context.config
    record.update(fields)
    sink.emit(record)
    return record


def forward(record: dict[str, Any]) -> None:
    """Stream an already-built record — a job milestone, or one a job
    attempt captured — into the installed sink, if it takes the type."""
    sink = _SINK
    if sink is not None and sink.wants(record["type"]):
        sink.emit(record)


def emit_remark(remark) -> None:
    """Stream one :class:`~repro.robustness.Remark` as a record
    (:meth:`DiagnosticEngine.emit` calls this once per remark)."""
    if not wants("remark"):
        return
    emit(
        "remark",
        severity=remark.severity.value,
        category=remark.category,
        message=remark.message,
        function=remark.function or _CONTEXT.function,
        phase=remark.phase,
        remediation=remark.remediation,
        **{"pass": remark.pass_name or _CONTEXT.pass_name},
    )


def validate_record(record: dict[str, Any]) -> list[str]:
    """Schema check for one record; returns human-readable errors."""
    errors: list[str] = []
    for key in COMMON_KEYS:
        if key not in record:
            errors.append(f"missing common key {key!r}")
    type_ = record.get("type")
    if type_ not in RECORD_SCHEMA:
        errors.append(f"unknown record type {type_!r}")
        return errors
    for key in RECORD_SCHEMA[type_]:
        if key not in record:
            errors.append(f"{type_} record missing key {key!r}")
    return errors


__all__ = [
    "COMMON_KEYS",
    "Context",
    "DUMP_TYPES",
    "JsonlSink",
    "ListSink",
    "RECORD_SCHEMA",
    "ROOT",
    "active_sink",
    "current",
    "emit",
    "emit_remark",
    "enter",
    "forward",
    "set_sink",
    "validate_record",
    "wants",
]
