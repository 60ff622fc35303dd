"""Tests for the unified observability layer (``repro.obs``).

Covers the four pillars and their CLI wiring: span nesting/ordering
determinism, metrics-registry isolation between compiles, JSONL record
schema round-trips, interpreter-profile cycle attribution, SLP-graph
DOT export, and the end-to-end ``lslp run`` acceptance command.
"""

from __future__ import annotations

import io
import json
import re

import pytest

import repro.obs as obs
from repro.cli import main
from repro.costmodel.targets import skylake_like
from repro.interp.interpreter import Interpreter
from repro.interp.memory import MemoryImage
from repro.obs import InterpProfile, ListSink, metrics, records, tracing
from repro.obs.records import validate_record
from repro.obs.validate import (
    validate_chrome_trace,
    validate_remarks_jsonl,
    validate_stats_json,
)
from repro.opt.pipelines import compile_function
from repro.slp.vectorizer import VectorizerConfig

from .conftest import build_kernel

KERNEL = """
long A[1024], B[1024], C[1024];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
    A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
}
"""


#: two trees: the second is applied after the first touched the
#: function, so it is rebuilt at apply time
TWO_TREE_KERNEL = """
long A[1024], B[1024], C[1024], D[1024];
void kernel(long i) {
    A[i + 0] = B[i + 0] + C[i + 0];
    A[i + 1] = B[i + 1] + C[i + 1];
    D[i + 0] = B[i + 2] * C[i + 2];
    D[i + 1] = B[i + 3] * C[i + 3];
}
"""


def _compile_traced(source=KERNEL):
    """One guarded LSLP compile with tracing on; returns the tracer."""
    tracer = tracing.install()
    try:
        _, func = build_kernel(source)
        compile_function(func, VectorizerConfig.lslp(), skylake_like())
    finally:
        tracing.uninstall()
    return tracer


def _ancestors(tracer, span_name):
    """Names of the enclosing spans of the first ``span_name`` span."""
    by_index = {s.index: s for s in tracer.spans}
    node = next(s for s in tracer.spans if s.name == span_name)
    chain = []
    while node.parent is not None:
        node = by_index[node.parent]
        chain.append(node.name)
    return chain


class TestTracing:
    def test_span_nesting(self):
        tracer = _compile_traced()
        names = [s.name for s in tracer.spans]
        assert "frontend.parse" in names
        assert "frontend.lower" in names
        assert "compile.function" in names
        assert "opt.slp" in names
        assert "slp.codegen" in names
        # The one tree is emitted as planned: the plan-time build that
        # produced the code nests under the function's planning, which
        # runs after its scalar passes and before its compile.function
        # root, and nothing is built again.
        assert "slp.build_graph" not in names
        chain = _ancestors(tracer, "slp.plan_graph")
        assert "slp.module_plan" in chain
        assert "slp.function" not in chain
        assert "compile.function" not in chain
        # An apply-time rebuild nests the same way.
        chain = _ancestors(_compile_traced(TWO_TREE_KERNEL),
                           "slp.build_graph")
        assert "slp.function" in chain
        assert "opt.slp" in chain
        assert "compile.function" in chain

    def test_span_content_is_deterministic(self):
        first = _compile_traced().render_tree(times=False)
        second = _compile_traced().render_tree(times=False)
        assert first == second
        assert first  # non-empty

    def test_chrome_export_validates(self):
        tracer = _compile_traced()
        text = tracer.to_chrome()
        assert validate_chrome_trace(text, ["slp", "opt"]) == []
        data = json.loads(text)
        assert data["displayTimeUnit"] == "ms"
        for event in data["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_disabled_span_is_noop(self):
        assert tracing.active() is None
        with obs.span("anything", k=1) as handle:
            handle.set(more=2)
        assert tracing.active() is None

    def test_unwind_tolerated(self):
        tracer = tracing.install()
        try:
            with pytest.raises(RuntimeError):
                with obs.span("outer"):
                    with obs.span("inner"):
                        raise RuntimeError("boom")
            with obs.span("after"):
                pass
        finally:
            tracing.uninstall()
        after = next(s for s in tracer.spans if s.name == "after")
        assert after.parent is None  # stack fully unwound


class TestMetrics:
    def test_publication_guarded_by_flag(self):
        metrics.add("slp.trees_built", 5)
        assert len(metrics.registry()) == 0
        metrics.set_publishing(True)
        metrics.add("slp.trees_built", 5)
        assert metrics.registry().counter("slp.trees_built").value == 5

    def test_reset_isolates_compiles(self):
        metrics.set_publishing(True)
        _, func = build_kernel(KERNEL)
        compile_function(func, VectorizerConfig.lslp(), skylake_like())
        first = metrics.registry().snapshot()
        assert first["slp.trees_built"] == 1
        assert first["lookahead.evals"] > 0
        metrics.reset()
        assert len(metrics.registry()) == 0
        _, func = build_kernel(KERNEL)
        compile_function(func, VectorizerConfig.lslp(), skylake_like())
        assert metrics.registry().snapshot() == first

    def test_snapshot_is_name_sorted_and_json_canonical(self):
        registry = metrics.MetricsRegistry()
        registry.counter("z.last").inc(2)
        registry.counter("a.first").inc(1)
        registry.histogram("m.hist").observe(3.0)
        assert list(registry.snapshot()) == ["a.first", "m.hist", "z.last"]
        text = registry.to_json()
        assert text == registry.to_json()
        assert validate_stats_json(text, ["a.first", "m.hist"]) == []

    def test_type_mismatch_rejected(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")


class TestRecords:
    def _vectorize_with_sink(self, config=None):
        sink = ListSink()
        records.set_sink(sink)
        try:
            _, func = build_kernel(KERNEL)
            compile_function(func, config or VectorizerConfig.lslp(),
                             skylake_like())
        finally:
            records.set_sink(None)
        return sink.records

    def test_decision_records_validate(self):
        emitted = self._vectorize_with_sink()
        assert emitted
        for record in emitted:
            assert validate_record(record) == []
        types = {r["type"] for r in emitted}
        assert {"seed", "group", "reorder"} <= types

    def test_records_carry_function_and_pass_context(self):
        for record in self._vectorize_with_sink():
            assert record["function"] == "kernel"
            assert record["pass"] == "slp"
            assert record["config"] == "LSLP"

    def test_group_record_carries_cost_delta(self):
        groups = [r for r in self._vectorize_with_sink()
                  if r["type"] == "group"]
        assert groups and groups[0]["vectorized"] is True
        assert groups[0]["cost"] < 0  # profitable: negative delta

    def test_rejected_group_has_reason(self):
        groups = [
            r for r in self._vectorize_with_sink(VectorizerConfig.slp())
            if r["type"] == "group"
        ]
        assert groups and groups[0]["vectorized"] is False
        assert groups[0]["reason"] == "cost"

    def test_jsonl_round_trip(self):
        stream = io.StringIO()
        sink = records.JsonlSink(stream)
        records.set_sink(sink)
        try:
            _, func = build_kernel(KERNEL)
            compile_function(func, VectorizerConfig.lslp(),
                             skylake_like())
        finally:
            records.set_sink(None)
        text = stream.getvalue()
        assert sink.emitted == len(text.splitlines())
        assert validate_remarks_jsonl(text, ["seed", "group"]) == []
        # canonical form: every line re-serializes to itself
        for line in text.splitlines():
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True,
                              separators=(",", ":")) == line

    def test_emit_without_sink_is_noop(self):
        assert records.emit("seed", kind="store", vector_length=2) is None


class TestInterpProfile:
    def test_profile_totals_match_execution_result(self):
        module, func = build_kernel(KERNEL)
        compile_function(func, VectorizerConfig.lslp(), skylake_like())
        memory = MemoryImage(module)
        memory.randomize(seed=0)
        profile = InterpProfile()
        result = Interpreter(memory, skylake_like()).run(
            func, {"i": 0}, profile=profile,
        )
        assert profile.total_cycles == result.cycles
        assert profile.total_instructions == result.instructions_retired
        assert dict(profile.opcode_counts) == dict(result.opcode_counts)

    def test_hot_instructions_are_deterministic(self):
        def run_once():
            module, func = build_kernel(KERNEL)
            memory = MemoryImage(module)
            memory.randomize(seed=0)
            profile = InterpProfile()
            Interpreter(memory, skylake_like()).run(
                func, {"i": 0}, profile=profile,
            )
            return [(r.text, r.count, r.cycles)
                    for r in profile.hot_instructions()]

        first, second = run_once(), run_once()
        assert first == second
        cycles = [c for _, _, c in first]
        assert cycles == sorted(cycles, reverse=True)


class TestGraphDot:
    def _graph(self):
        sink = ListSink(types=("slp.graph",))
        records.set_sink(sink)
        try:
            _, func = build_kernel(KERNEL)
            compile_function(func, VectorizerConfig.lslp(),
                             skylake_like())
        finally:
            records.set_sink(None)
        captured = [(r["function"], r["kind"], r["dot"])
                    for r in sink.records]
        assert captured
        return captured[0]

    def test_dot_uses_canonical_handles(self):
        _, _, dot = self._graph()
        assert dot.startswith("digraph")
        assert "%<" not in dot  # raw id handles canonicalized away
        assert re.search(r"%u\d", dot)

    def test_dot_is_deterministic(self):
        first = self._graph()
        second = self._graph()
        assert first == second


class TestCliAcceptance:
    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "kernel.c"
        path.write_text(KERNEL)
        return str(path)

    def test_run_emits_all_artifacts(self, kernel_file, tmp_path,
                                     capsys):
        trace_path = tmp_path / "t.json"
        remarks_path = tmp_path / "r.jsonl"
        assert main([
            "run", kernel_file, "--arg", "i=0",
            "--trace-out", str(trace_path),
            "--remarks-out", str(remarks_path),
            "--stats=json", "--profile-interp",
        ]) == 0
        out = capsys.readouterr().out

        # the stats JSON is the last stdout line, and interp.cycles in
        # it equals the cycle count the run line reported
        lines = out.strip().splitlines()
        stats = json.loads(lines[-1])
        reported = int(
            re.search(r"(\d+) cycles", out).group(1)
        )
        assert stats["interp.cycles"] == reported
        assert stats["slp.groups_vectorized"] == 1
        assert "== interp profile ==" in out
        assert "hot instructions:" in out

        trace_errors = validate_chrome_trace(
            trace_path.read_text(),
            ["frontend", "opt", "slp", "interp"],
        )
        assert trace_errors == []
        assert validate_remarks_jsonl(
            remarks_path.read_text(), ["group"]
        ) == []

    def test_run_dumps_slp_graph(self, kernel_file, tmp_path, capsys):
        dot_path = tmp_path / "graph.dot"
        assert main([
            "run", kernel_file, "--arg", "i=0",
            "--dump-slp-graph", str(dot_path),
        ]) == 0
        dot = dot_path.read_text()
        assert dot.startswith("digraph")
        assert "store" in dot

    def test_stats_text_block(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "== lslp stats ==" in out
        assert "slp.trees_built" in out

    def test_default_run_has_no_obs_output(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=0"]) == 0
        out = capsys.readouterr().out
        assert "== lslp stats ==" not in out
        assert "== interp profile ==" not in out
        assert not obs.enabled()

    def test_batch_stats_json(self, kernel_file, tmp_path, capsys):
        assert main([
            "batch", str(tmp_path), "--configs", "lslp",
            "--stats=json",
        ]) == 0
        out = capsys.readouterr().out
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["service.jobs"] == 1
        assert stats["cache.misses"] == 1


class TestReset:
    def test_reset_disables_everything(self):
        tracing.install()
        records.set_sink(ListSink())
        metrics.set_publishing(True)
        metrics.add("x")
        records.enter(records.Context(function="f"))
        assert obs.enabled()
        obs.reset()
        assert not obs.enabled()
        assert tracing.active() is None
        assert records.active_sink() is None
        assert len(metrics.registry()) == 0
        # context cleared: records emitted later carry no stale names
        sink = ListSink()
        records.set_sink(sink)
        records.emit("degrade", kind="k", detail="d")
        records.set_sink(None)
        assert sink.records[0]["function"] == ""
