"""In-memory span recording for the traced benchmark runs.

The benchmark wraps each public layer call it makes in a span; spans
live in a flat list and are only serialized when the run ends.  Every
span carries the id of the trace (one traced op, set-up step or check)
it belongs to and the index of its parent span, so self time — a
span's duration minus the part its children cover — is exact.

Times are ``time.perf_counter_ns`` readings.  :class:`NullTracer` is
the untraced stand-in: same interface, records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: field positions inside one recorded span
NAME, TRACE, PARENT, START, END = range(5)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = [name, tracer.trace_id, -1, 0, 0]

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer.stack
        record = self.record
        if stack:
            record[PARENT] = stack[-1]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.record[END] = time.perf_counter_ns()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return (self.record[END] - self.record[START]) / 1e9


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = ""
        self.traces = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def trace(self, label: str, root: str) -> _Span:
        """The root span of a new trace (one op, set-up step or check);
        the trace id is ``label`` made unique by a sequence number."""
        self.traces += 1
        self.trace_id = f"{label}#{self.traces}"
        return _Span(self, root)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """The untraced run's tracer: spans cost one method call."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def trace(self, label: str, root: str) -> _NullSpan:
        return self._span


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover
    (children of one parent never overlap: the benchmark is one
    thread)."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def tree_problems(spans: list[list]) -> list[str]:
    """Ways the span list fails to be a well-formed forest: a child
    outside its parent's interval or trace, an unfinished span, or a
    negative self time."""
    problems = []
    for index, record in enumerate(spans):
        if record[END] < record[START]:
            problems.append(f"span {index} {record[NAME]} ends before "
                            f"it starts")
        parent = record[PARENT]
        if parent < 0:
            continue
        outer = spans[parent]
        if not (outer[START] <= record[START]
                and record[END] <= outer[END]):
            problems.append(f"span {index} {record[NAME]} lies outside "
                            f"its parent {outer[NAME]}")
        if outer[TRACE] != record[TRACE]:
            problems.append(f"span {index} {record[NAME]} changes trace "
                            f"inside {outer[NAME]}")
    for index, own in enumerate(self_times(spans)):
        if own < 0:
            problems.append(f"span {index} {spans[index][NAME]} has "
                            f"negative self time {own} ns")
    return problems


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: total and self nanoseconds, and the set of traces
    the name occurs in."""
    own = self_times(spans)
    table: dict[str, dict] = defaultdict(
        lambda: {"total_ns": 0, "self_ns": 0, "traces": set()}
    )
    for index, record in enumerate(spans):
        row = table[record[NAME]]
        row["total_ns"] += record[END] - record[START]
        row["self_ns"] += own[index]
        row["traces"].add(record[TRACE])
    return dict(table)


def to_chrome(spans: list[list]) -> str:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
    Traces run one after another on one thread, so they share a row;
    each event names its trace in ``args``."""
    epoch = min((record[START] for record in spans), default=0)
    events = [{
        "name": record[NAME],
        "cat": record[NAME].split(".", 1)[0],
        "ph": "X",
        "ts": (record[START] - epoch) / 1e3,
        "dur": (record[END] - record[START]) / 1e3,
        "pid": 1,
        "tid": 1,
        "args": {"trace": record[TRACE]},
    } for record in spans]
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
