"""Tests of the benchmark harness; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf

They drive ``run.py`` with ``--quick`` (a few ops, one pass),
so they check the harness, not the numbers it measures.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, self_times, Tracer, tree_problems  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: per-layer metrics that must repeat exactly for a seed
EXACT = ("static_cost_total", "sim_cycles_total", "slp.trees_built",
         "slp.trees_vectorized", "slp.vectorized_ratio", "slp.nodes",
         "slp.gathers", "slp.lookahead_evals", "ir.insts_after_scalar",
         "ir.insts_after_slp")

_RUNS: dict = {}


def quick_run(workload: str, seed: int, trace: int, repeat: int = 0,
              tmp: Path = None) -> tuple[dict, dict]:
    """(last stdout line, --out record) of one quick run, cached per
    argument tuple."""
    key = (workload, seed, trace, repeat)
    if key not in _RUNS:
        out = tmp / f"{workload}-{seed}-{trace}-{repeat}.json"
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--quick",
             "--out", str(out)],
            capture_output=True, text=True, cwd=ROOT, timeout=300)
        assert completed.returncode == 0, completed.stderr
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        _RUNS[key] = last, json.loads(out.read_text())["workloads"][workload]
    return _RUNS[key]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def test_workloads_match_benchmark_json():
    assert tuple(WORKLOADS) == harness.WORKLOADS
    assert tuple(WORKLOADS) == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_are_benchmark_json_metrics(workload, trace, tmp):
    last, _ = quick_run(workload, 1, trace, tmp=tmp)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert METRIC_NAME.match(spec["name"])
        entry = last["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_for_a_seed(workload, tmp):
    first, _ = quick_run(workload, 1, 1, tmp=tmp)
    second, _ = quick_run(workload, 1, 1, repeat=1, tmp=tmp)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def _inputs(name: str, seed: int):
    """A printable fingerprint of a quick workload's op list."""
    workload = workloads.WORKLOADS[name](seed, True, False)
    try:
        workload.setup(NullTracer())
    finally:
        workload.close()
    ops = workload.ops
    if name == "catalog-compile":
        return [(kernel.name, config.name) for kernel, config in ops]
    if name == "suite-batch":
        return [job.ir for job in ops]
    if name == "service-cache":
        return [(kind, key) for kind, key, _ in ops]
    return [(kernel.name, args, memory.arrays())
            for kernel, args, memory in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_chooses_the_inputs(workload):
    assert _inputs(workload, 1) == _inputs(workload, 1)
    assert _inputs(workload, 1) != _inputs(workload, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replay_matches_and_spans_nest(workload):
    instance = workloads.WORKLOADS[workload](3, True, True)
    tracer = Tracer()
    try:
        instance.setup(tracer)
        for pass_index in range(2):
            instance.start_pass(pass_index)
            for number, op in enumerate(instance.ops):
                _, seconds, _, error, _ = workloads.run_op(
                    instance, op, tracer, f"p{pass_index}.{number}",
                    None)
                assert error is None
                assert seconds > 0
    finally:
        instance.close()
    assert instance.setup_failures == []
    assert tree_problems(tracer.spans) == []
    assert min(self_times(tracer.spans)) >= 0
    roots = [s for s in tracer.spans if s[2] < 0]
    assert sum(s[0] == "op" for s in roots) == 2 * len(instance.ops)
    children = {s[2] for s in tracer.spans if s[2] >= 0}
    assert all(index in children for index, s in enumerate(tracer.spans)
               if s[0] == "op")


def test_tree_problems_catch_a_child_outside_its_parent():
    tracer = Tracer()
    with tracer.trace("t", "op"):
        with tracer.span("layer"):
            time.sleep(0.001)
    assert tree_problems(tracer.spans) == []
    outer, inner = tracer.spans
    inner[3], inner[4] = outer[3] - 1000, outer[4] + 1000
    problems = tree_problems(tracer.spans)
    assert any("outside" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def _run_document(values: dict) -> dict:
    return {"workloads": {"catalog-compile": {"metrics": {
        name: {"value": value, "unit": "ms"}
        for name, value in values.items()}}}}


@pytest.mark.parametrize("old, new, expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.05, 10.0, 10.1, 9.95], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "worse"),
    ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "better"),
    ([10.0, 14.0, 6.0, 10.0], [10.5, 14.0, 6.5, 10.5], "unresolved"),
])
def test_diff_verdicts(old, new, expected, tmp_path, capsys):
    for side, values in (("old", old), ("new", new)):
        folder = tmp_path / side
        folder.mkdir()
        for index, value in enumerate(values):
            (folder / f"{index}.json").write_text(json.dumps(
                _run_document({"op_ms_p50": value})))
    code = harness.main(["--diff", str(tmp_path / "old"),
                         str(tmp_path / "new")])
    row = [line for line in capsys.readouterr().out.splitlines()
           if "op_ms_p50" in line][0]
    assert row.split()[-1] == expected
    assert "(base 10 ms)" in row
    assert code == (1 if expected == "worse" else 0)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "perf"
    copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, copy)
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "catalog-compile", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
