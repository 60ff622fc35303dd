"""Tests for the batch compilation service (repro.service).

The headline guarantees: parallel batches produce byte-identical
reports to serial ones; a warm cache performs zero vectorizer
invocations; admission degrades gracefully (and degraded artifacts are
never cached); and the figure runner measures identically through the
service and around it.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.cli import main
from repro.costmodel.targets import skylake_like
from repro.experiments.runner import (
    measure_kernel,
    measure_suite,
    PAPER_CONFIGS,
)
from repro.kernels.catalog import ALL_KERNELS
from repro.kernels.suites import SUITE_SPECS
from repro.robustness import Budget
from repro.service import (
    AdmissionPolicy,
    CompilationService,
    CompileCache,
    job_for_kernel,
    job_for_source,
)
from repro.slp.vectorizer import VectorizerConfig

KERNELS = list(ALL_KERNELS.values())[:4]
CONFIGS = [VectorizerConfig.slp(), VectorizerConfig.lslp()]


def _jobs(**overrides):
    return [
        job_for_kernel(kernel, config, skylake_like(), **overrides)
        for kernel in KERNELS for config in CONFIGS
    ]


def _fingerprint(batch):
    return [(r.job.name, r.job.config.name, r.report_json, r.ir_text,
             r.static_cost) for r in batch.results]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_parallel_batch_matches_serial_byte_for_byte():
    serial = CompilationService(cache=None, jobs=1).compile_batch(_jobs())
    parallel = CompilationService(cache=None, jobs=4).compile_batch(_jobs())
    assert serial.ok and parallel.ok
    assert _fingerprint(serial) == _fingerprint(parallel)
    assert parallel.stats.queue_depth_highwater >= 1


def test_warm_batch_is_byte_identical_and_compiles_nothing():
    service = CompilationService(cache=CompileCache(), jobs=1)
    cold = service.compile_batch(_jobs())
    warm = service.compile_batch(_jobs())
    assert cold.ok and warm.ok
    assert _fingerprint(cold) == _fingerprint(warm)
    assert cold.stats.misses == len(_jobs())
    assert warm.stats.vectorizer_invocations == 0
    assert warm.stats.memory_hits == len(_jobs())
    assert warm.stats.hit_rate == 1.0
    assert all(r.cache_tier == "memory" for r in warm.results)


def test_disk_cache_warms_a_fresh_service(tmp_path):
    cold_service = CompilationService(
        cache=CompileCache.with_disk(tmp_path), jobs=1
    )
    cold = cold_service.compile_batch(_jobs())
    fresh_service = CompilationService(
        cache=CompileCache.with_disk(tmp_path), jobs=1
    )
    warm = fresh_service.compile_batch(_jobs())
    assert _fingerprint(cold) == _fingerprint(warm)
    assert warm.stats.vectorizer_invocations == 0
    assert warm.stats.disk_hits == len(_jobs())


def test_rehydrated_module_is_executable(tmp_path):
    """A cache-hit result's module (parsed back from printed IR) runs
    and produces the same interpreter state as the cold compile."""
    from repro.interp import compare_runs

    kernel = KERNELS[0]
    job = job_for_kernel(kernel, VectorizerConfig.lslp(), skylake_like())
    service = CompilationService(cache=CompileCache.with_disk(tmp_path))
    cold = service.compile_job(job)
    warm = CompilationService(
        cache=CompileCache.with_disk(tmp_path)
    ).compile_job(job)
    assert warm.cache_tier == "disk"
    cold_module = cold.module
    warm_module = warm.module
    comparison = compare_runs(
        (cold_module, cold_module.get_function(kernel.entry)),
        (warm_module, warm_module.get_function(kernel.entry)),
        args=kernel.default_args,
    )
    assert comparison.equivalent, comparison.detail


# ---------------------------------------------------------------------------
# Budgets and admission
# ---------------------------------------------------------------------------


def test_module_budget_exhaustion_degrades_but_completes():
    config = VectorizerConfig.lslp().with_budget(
        Budget(max_module_seconds=0.0)
    )
    jobs = [job_for_kernel(k, config, skylake_like()) for k in KERNELS]
    batch = CompilationService(cache=None).compile_batch(jobs)
    assert batch.ok
    assert batch.stats.budget_exhausted == len(jobs)
    for result in batch.results:
        assert result.report.num_vectorized == 0
        assert any(r.category == "budget" for r in result.remarks)


def test_admission_degrades_to_scalar_and_skips_the_cache():
    service = CompilationService(
        cache=CompileCache(),
        admission=AdmissionPolicy(max_total_seconds=0.0),
    )
    batch = service.compile_batch(_jobs())
    assert batch.ok
    assert batch.stats.degraded == len(_jobs())
    assert batch.stats.stores == 0          # degraded != true artifact
    for result in batch.results:
        assert result.degraded
        assert result.report.num_vectorized == 0
        assert any(r.category == "admission" for r in result.remarks)
    # the same jobs compile at full fidelity once the budget allows
    recovered = CompilationService(cache=service.cache).compile_batch(
        [job_for_kernel(KERNELS[0], VectorizerConfig.lslp(),
                        skylake_like())]
    )
    assert recovered.stats.misses == 1      # nothing poisoned the cache


def test_per_job_budget_installed_by_admission():
    policy = AdmissionPolicy(job_budget=Budget.service_default())
    service = CompilationService(cache=None, admission=policy)
    job = job_for_kernel(KERNELS[0], VectorizerConfig.lslp(),
                         skylake_like())
    assert job.config.budget is None
    result = service.compile_job(job)
    assert result.ok


# ---------------------------------------------------------------------------
# Oracle sweeps and error containment
# ---------------------------------------------------------------------------


def test_verify_runs_sweeps_pass_on_correct_kernels():
    jobs = _jobs(verify_runs=3)
    batch = CompilationService(cache=None).compile_batch(jobs)
    assert batch.ok
    assert _fingerprint(batch) != []


def test_front_end_error_is_contained_per_job():
    good = job_for_kernel(KERNELS[0], VectorizerConfig.lslp(),
                          skylake_like())
    bad = job_for_source("broken", "void kernel( {",
                         VectorizerConfig.lslp())
    batch = CompilationService(cache=None).compile_batch([bad, good])
    assert not batch.ok
    assert batch.results[0].error != ""
    assert batch.results[1].ok          # one bad job never sinks a batch
    assert batch.stats.errors == 1


# ---------------------------------------------------------------------------
# Figure runner integration
# ---------------------------------------------------------------------------


def _strip_seconds(measurement):
    data = asdict(measurement)
    data.pop("compile_seconds")
    return data


def test_measure_kernel_matches_fresh_compile():
    kernel = KERNELS[0]
    for config in PAPER_CONFIGS:
        fresh = measure_kernel(kernel, config, service=False)
        cached = measure_kernel(kernel, config)
        again = measure_kernel(kernel, config)
        assert _strip_seconds(fresh) == _strip_seconds(cached)
        assert _strip_seconds(cached) == _strip_seconds(again)


def test_measure_suite_matches_fresh_compile():
    spec = SUITE_SPECS[0]
    config = PAPER_CONFIGS[-1]
    fresh = measure_suite(spec, config, service=False)
    cached = measure_suite(spec, config)
    assert _strip_seconds(fresh) == _strip_seconds(cached)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_batch_catalog_memory_cache(capsys):
    rc = main(["batch", "catalog", "--configs", "scalar,lslp",
               "--report"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cache:" in out and "vectorizer invocations:" in out
    assert "[LSLP]" in out


def test_cli_batch_warm_disk_run_meets_hit_rate(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    base = ["batch", "catalog", "--configs", "slp,lslp",
            "--cache", "disk", "--cache-dir", cache_dir]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--min-hit-rate", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "vectorizer invocations: 0" in out


def test_cli_batch_min_hit_rate_fails_cold(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    rc = main(["batch", "catalog", "--configs", "lslp",
               "--cache", "disk", "--cache-dir", cache_dir,
               "--min-hit-rate", "0.99"])
    assert rc == 1
    assert "below the required" in capsys.readouterr().err


def test_cli_batch_directory_source(tmp_path, capsys):
    (tmp_path / "k1.c").write_text(ALL_KERNELS[KERNELS[0].name].source)
    rc = main(["batch", str(tmp_path), "--configs", "lslp", "--report"])
    assert rc == 0
    assert "k1" in capsys.readouterr().out


def test_cli_batch_parallel_jobs(capsys):
    rc = main(["batch", "catalog", "--configs", "lslp", "--jobs", "2"])
    assert rc == 0
    assert "2 worker(s)" in capsys.readouterr().out
