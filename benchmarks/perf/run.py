"""Run the repository benchmark, or compare two sets of its runs.

Run one workload, or all four, from the root of a checkout::

    python3 benchmarks/perf/run.py --workload {all|NAME} --seed N \\
        [--seconds S] [--trace [0|1]] [--out FILE] [--quick]

Each workload runs in its own subprocess (``workloads.py``), after a
few set-up-only subprocesses whose set-up times give ``setup_s`` its
median.  Every metric prints as ``workload metric value unit``; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Untraced runs report the end-to-end
metrics of ``BENCHMARK.json``; ``--trace`` runs report its per-layer
metrics and write a Chrome trace to ``benchmarks/perf/output/``.  The
exit code is 1 when any output check failed.

Compare two sets of runs (each a ``--out`` file or a directory of them)::

    python3 benchmarks/perf/run.py --diff OLD NEW

which exits 1 when an end-to-end metric's median got worse than its
``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
OUTPUT = HERE / "output"
WORKLOADS = ("catalog-compile", "suite-batch", "service-cache",
             "exec-kernels")

#: set-ups per untraced run: the main run's plus set-up-only processes
SETUP_SAMPLES = 3
#: a workload process that takes longer is killed and the run fails
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def spawn(workload: str, seed: int, seconds: float, trace: int,
          quick: bool, setup_only: bool = False) -> dict:
    """Run one workload process and return its JSON result."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    # Hash randomization off: the same seed gives the same process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    command += ["--t0", repr(time.monotonic())]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} exited with code "
                           f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    samples = 1 if trace or quick else SETUP_SAMPLES
    setups = [spawn(workload, seed, seconds, trace, quick,
                    setup_only=True)["setup_s"]
              for _ in range(samples - 1)]
    result = spawn(workload, seed, seconds, trace, quick)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    return result


def _number(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.quick else load_benchmark()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace,
                              args.quick)
        results[name] = result
        for error in result["errors"]:
            print(f"{name}: check failed: {error}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {_number(entry['value'])} "
                  f"{entry['unit']}")

    out = args.out
    if out is None:
        OUTPUT.mkdir(exist_ok=True)
        out = OUTPUT / (f"run-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    document = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "quick": args.quick,
        "env": next(iter(results.values()))["env"],
        "workloads": {name: {key: value for key, value in result.items()
                             if key != "env"}
                      for name, result in results.items()},
    }
    Path(out).write_text(json.dumps(document, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": entry
                   for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# --diff
# ---------------------------------------------------------------------------


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def _values(runs: list[dict]) -> dict:
    """(workload, metric) -> the metric's values across ``runs``."""
    values: dict = {}
    for document in runs:
        for workload, result in document["workloads"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old: list[float], new: list[float], better: str,
            bound: float) -> str:
    """Compare two sets of runs of one end-to-end metric.

    ``worse`` when the new median is worse than the old by more than
    ``bound``; ``unresolved`` when either side's own spread exceeds the
    bound, unless every new run beats every old run; ``better`` when the
    medians differ by more than the old runs' spread."""
    sign = 1 if better == "lower" else -1
    old_median, new_median = quartiles(old)[1], quartiles(new)[1]
    if not old_median:
        return "unresolved"
    change = sign * (new_median - old_median) / abs(old_median)
    if change > bound:
        return "worse"
    beats_all = (max(new) < min(old) if sign > 0 else min(new) > max(old))
    if max(spread(old), spread(new)) > bound:
        return "better" if beats_all else "unresolved"
    if change < 0 and -change > spread(old):
        return "better"
    return "unchanged"


def diff(old_path: Path, new_path: Path) -> int:
    benchmark = load_benchmark()
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    old, new = _values(load_runs(old_path)), _values(load_runs(new_path))
    header = (f"{'workload':16} {'metric':24} {'old median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'new/old (base)':>30} verdict")
    print(header)
    failed = False
    for key in sorted(old.keys() & new.keys(),
                      key=lambda k: (WORKLOADS.index(k[0])
                                     if k[0] in WORKLOADS else 99, k[1])):
        workload, metric = key
        unit = units.get(metric, "")
        cells = []
        for values in (old[key], new[key]):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {unit}")
        old_median = quartiles(old[key])[1]
        ratio = (f"{quartiles(new[key])[1] / old_median:.4f} "
                 f"(base {old_median:.6g} {unit})"
                 if old_median else f"n/a (base 0 {unit})")
        if metric in bounds:
            spec = bounds[metric]
            outcome = verdict(old[key], new[key], spec["better"],
                              spec["bound"])
            failed |= outcome == "worse"
        else:
            outcome = "-"
        print(f"{workload:16} {metric:24} {cells[0]:>34} {cells[1]:>34} "
              f"{ratio:>30} {outcome}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark, or compare two sets of runs.")
    parser.add_argument("--workload", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="replay each op traced and report the "
                             "per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the run's JSON")
    parser.add_argument("--quick", action="store_true",
                        help="a few ops and one pass per workload, for tests")
    parser.add_argument("--diff", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        parser.error("--workload is required unless --diff is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
