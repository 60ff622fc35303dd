"""Execution backend — compiled-tier wall-clock speedup over the
interpreter, per catalog kernel, plus the warm-cache serving path.

Not a paper figure: this measures the PR's own execution subsystem.
Three claims are asserted:

* the compiled (flat Python) tier beats the interpreter by >= 10x
  wall-clock on at least half the evaluation catalog,
* cold cost (emit + load) amortizes: it is bounded by a handful of
  warm runs' worth of interpreter time, and
* a warm service cache serves the generated source byte-identically
  with zero vectorizer invocations and zero re-emits.

Alongside the ASCII table this bench writes
``output/backendspeedup.json`` with the raw per-kernel timings for
trend tracking.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.backend import TieredExecutor
from repro.costmodel.targets import skylake_like, target_by_name
from repro.experiments.reporting import FigureTable
from repro.interp.interpreter import Interpreter
from repro.interp.memory import MemoryImage
from repro.kernels.catalog import EVALUATION_KERNELS
from repro.opt.pipelines import compile_function
from repro.service import (
    CompilationService,
    CompileCache,
    DiskCache,
    job_for_kernel,
    MemoryCache,
)
from repro.slp.vectorizer import VectorizerConfig

from conftest import OUTPUT_DIR, emit_table

TARGET = target_by_name("skylake-like")
INTERP_RUNS = 20
WARM_RUNS = 200
#: acceptance floor: >= 10x on at least half the catalog
SPEEDUP_FLOOR = 10.0
MIN_KERNELS_AT_FLOOR = len(EVALUATION_KERNELS) // 2 + 1


def _time_per_run(fn, runs: int) -> float:
    started = time.perf_counter()
    for _ in range(runs):
        fn()
    return (time.perf_counter() - started) / runs


def _measure(kernel) -> dict:
    module, func = kernel.build()
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    args = dict(kernel.default_args)

    memory = MemoryImage(module)
    memory.randomize(7)
    interp = Interpreter(memory, TARGET)
    interp_s = _time_per_run(lambda: interp.run(func, args),
                             INTERP_RUNS)

    memory_c = MemoryImage(module)
    memory_c.randomize(7)
    executor = TieredExecutor(module, memory_c, TARGET,
                              backend="compiled")
    started = time.perf_counter()
    first = executor.run(func.name, args)
    cold_s = time.perf_counter() - started
    assert first.tier == "compiled"
    warm_s = _time_per_run(lambda: executor.run(func.name, args),
                           WARM_RUNS)

    ref = interp.run(func, args)
    cmp = executor.run(func.name, args).result
    assert ref.cycles == cmp.cycles
    assert memory.same_contents(memory_c)

    return {
        "kernel": kernel.name,
        "interp_us": interp_s * 1e6,
        "cold_us": cold_s * 1e6,
        "warm_us": warm_s * 1e6,
        "speedup": interp_s / warm_s,
    }


@pytest.fixture(scope="module")
def measurements():
    # One throwaway emit+run first: the process-wide costs (bytecode
    # compilation of the loader) land on the first kernel otherwise
    # and would be misread as its cold cost.
    _measure(EVALUATION_KERNELS[0])
    return [_measure(kernel) for kernel in EVALUATION_KERNELS]


@pytest.fixture(scope="module")
def table(measurements):
    table = FigureTable(
        figure_id="BackendSpeedup",
        title="compiled tier vs interpreter, catalog under LSLP",
        columns=["kernel", "interp us/run", "cold us", "warm us/run",
                 "speedup"],
    )
    for m in measurements:
        table.add_row(**{
            "kernel": m["kernel"],
            "interp us/run": round(m["interp_us"], 1),
            "cold us": round(m["cold_us"], 1),
            "warm us/run": round(m["warm_us"], 2),
            "speedup": round(m["speedup"], 1),
        })
    at_floor = sum(1 for m in measurements
                   if m["speedup"] >= SPEEDUP_FLOOR)
    table.notes.append(
        f"{at_floor}/{len(measurements)} kernels at >= "
        f"{SPEEDUP_FLOOR:.0f}x (floor: {MIN_KERNELS_AT_FLOOR}); "
        f"{INTERP_RUNS} interpreter / {WARM_RUNS} compiled reps"
    )
    return table


def test_backend_speedup_bench(benchmark, table, measurements):
    hottest = max(measurements, key=lambda m: m["speedup"])
    kernel = next(k for k in EVALUATION_KERNELS
                  if k.name == hottest["kernel"])
    module, func = kernel.build()
    compile_function(func, VectorizerConfig.lslp(), TARGET)
    memory = MemoryImage(module)
    memory.randomize(7)
    executor = TieredExecutor(module, memory, TARGET,
                              backend="compiled")
    args = dict(kernel.default_args)
    benchmark(lambda: executor.run(func.name, args))
    emit_table(table)

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "backendspeedup.json").write_text(
        json.dumps({"schema": 1, "kernels": measurements},
                   indent=1, sort_keys=True) + "\n"
    )

    at_floor = [m for m in measurements
                if m["speedup"] >= SPEEDUP_FLOOR]
    assert len(at_floor) >= MIN_KERNELS_AT_FLOOR, (
        f"only {len(at_floor)}/{len(measurements)} kernels reached "
        f"{SPEEDUP_FLOOR:.0f}x: "
        + ", ".join(f"{m['kernel']}={m['speedup']:.1f}x"
                    for m in measurements)
    )
    # cold emit+load amortizes within a few dozen interpreter runs
    for m in measurements:
        assert m["cold_us"] < 50 * m["interp_us"], m


def test_warm_service_cache_serves_source(tmp_path):
    jobs = [job_for_kernel(kernel, VectorizerConfig.lslp(),
                           skylake_like(), backend="compiled",
                           verify_runs=1)
            for kernel in EVALUATION_KERNELS]
    cold_svc = CompilationService(cache=CompileCache(
        memory=MemoryCache(), disk=DiskCache(tmp_path)))
    started = time.perf_counter()
    cold = cold_svc.compile_batch(jobs)
    cold_seconds = time.perf_counter() - started
    assert cold.ok
    sources = {r.job.name: r.entry.generated_source
               for r in cold.results}
    assert all(sources.values())

    warm_svc = CompilationService(cache=CompileCache(
        memory=MemoryCache(), disk=DiskCache(tmp_path)))
    started = time.perf_counter()
    warm = warm_svc.compile_batch(jobs)
    warm_seconds = time.perf_counter() - started
    assert warm.ok
    assert warm_svc.stats.vectorizer_invocations == 0
    assert all(r.cache_tier == "disk" for r in warm.results)
    for r in warm.results:
        assert r.entry.generated_source == sources[r.job.name]
    assert warm_seconds < cold_seconds
