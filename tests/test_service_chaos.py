"""Service-level chaos sweeps (``pytest -m chaos``).

Every test arms deterministic, seeded service faults — real worker
kills in the process pool, worker hangs against per-job deadlines,
disk-cache corruption and ENOSPC — and asserts the service-level
contract: every submitted job completes (no lost jobs), recovered
artifacts are byte-identical to a fault-free run, deadlines actually
bound wall-clock time, and a killed worker never takes down more than
the jobs it was running.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.costmodel.targets import skylake_like
from repro.kernels.catalog import ALL_KERNELS
from repro.robustness import ServiceFaultPlan, ServiceFaultSpec
from repro.service import (
    CompilationService,
    CompileCache,
    DiskCache,
    job_for_kernel,
    JobError,
    JobOutcome,
    MemoryCache,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.service.resilience import BreakerPolicy, ERROR_TIMEOUT
from repro.slp.vectorizer import VectorizerConfig

pytestmark = pytest.mark.chaos

KERNELS = list(ALL_KERNELS.values())[:4]
CONFIGS = [VectorizerConfig.slp(), VectorizerConfig.lslp()]

#: fast retries so the sweeps stay test-suite friendly
RETRY = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_cap=0.02)


def _jobs(chaos=None):
    jobs = [
        job_for_kernel(kernel, config, skylake_like())
        for kernel in KERNELS for config in CONFIGS
    ]
    if chaos is not None:
        jobs = [replace(job, chaos=chaos) for job in jobs]
    return jobs


def _fingerprint(batch):
    return sorted(
        (r.job.name, r.job.config.name, r.ir_text, r.static_cost)
        for r in batch.results
    )


def _service(jobs=1, cache=None, **overrides):
    overrides.setdefault("retry", RETRY)
    overrides.setdefault("breaker", BreakerPolicy(failure_threshold=0))
    return CompilationService(cache=cache, jobs=jobs,
                              resilience=ResiliencePolicy(**overrides))


def _fault_free_fingerprint():
    return _fingerprint(_service(jobs=1).compile_batch(_jobs()))


# ---------------------------------------------------------------------------
# Worker kills
# ---------------------------------------------------------------------------


def _kill_plan(rate=1.0, seed=0):
    return ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-kill", rate=rate),),
        seed=seed,
    )


def test_serial_kill_sweep_recovers_every_job_byte_identically():
    batch = _service(jobs=1).compile_batch(_jobs(_kill_plan()))
    assert len(batch.results) == len(_jobs())
    assert batch.ok
    assert all(r.attempts == 2 for r in batch.results)
    assert batch.stats.retries == len(_jobs())
    assert batch.stats.retry_succeeded == len(_jobs())
    assert _fingerprint(batch) == _fault_free_fingerprint()


def test_pool_kill_sweep_survives_real_worker_deaths():
    """Every first attempt calls os._exit(33) inside a real pool
    worker: the executor is rebuilt and every job still completes,
    byte-identical to a fault-free run — a killed worker costs retries,
    never results."""
    batch = _service(jobs=2).compile_batch(_jobs(_kill_plan()))
    assert len(batch.results) == len(_jobs())   # no lost jobs
    assert batch.ok
    assert batch.stats.pool_rebuilds >= 1
    assert batch.stats.retry_succeeded >= 1
    assert all(not r.degraded for r in batch.results)
    assert _fingerprint(batch) == _fault_free_fingerprint()


def test_pool_partial_kill_fails_no_bystanders():
    """A seeded 50% kill rate: jobs whose fault never fires must not be
    lost or degraded by other jobs' worker deaths — collateral losses
    are retried as worker-lost, not surfaced."""
    batch = _service(jobs=2).compile_batch(
        _jobs(_kill_plan(rate=0.5, seed=7)))
    assert len(batch.results) == len(_jobs())
    assert batch.ok
    assert all(r.rung == "full" for r in batch.results)
    assert _fingerprint(batch) == _fault_free_fingerprint()


# ---------------------------------------------------------------------------
# Hangs and deadlines
# ---------------------------------------------------------------------------


def test_pool_hang_is_killed_at_the_deadline_and_retried():
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-hang", rate=1.0,
                                seconds=30.0),),
        seed=0,
    )
    jobs = _jobs(plan)[:2]
    timeout = 0.5
    started = time.monotonic()
    batch = _service(jobs=2, job_timeout=timeout).compile_batch(jobs)
    elapsed = time.monotonic() - started
    assert len(batch.results) == len(jobs)
    assert batch.ok
    assert batch.stats.timeouts >= 1
    assert batch.stats.pool_rebuilds >= 1
    assert all(r.attempts > 1 for r in batch.results)
    # The acceptance bound: no job may block past
    # timeout * (max_retries + 1); both ran concurrently, plus slack
    # for pool rebuild and compile time.
    assert elapsed < len(jobs) * timeout * (RETRY.max_retries + 1) + 5.0


def test_persistent_timeouts_walk_the_ladder_not_an_exception():
    """A job that times out at *every* rung must end as a structured
    refusal with timeout and ladder metrics — never a hang or raise."""
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-hang", rate=1.0,
                                max_fires=99, seconds=30.0),),
        seed=0,
    )
    job = replace(_jobs()[0], chaos=plan)
    batch = _service(
        jobs=2, job_timeout=0.3,
        retry=RetryPolicy(max_retries=0, backoff_base=0.005),
    ).compile_batch([job])
    [result] = batch.results
    assert not result.ok
    assert result.error_info is not None
    assert result.error_info.kind == "refused"
    assert batch.stats.timeouts >= 2
    assert batch.stats.refused == 1


def test_timed_out_jobs_land_on_the_ladder_with_remark_and_metric(
        monkeypatch):
    """A deadline expiry whose retries are exhausted degrades (remark +
    ``service.degrade.*`` metric), it does not surface as an error."""
    import repro.service.pool as pool_module

    real = pool_module.execute_job

    def runner(job, capture=None):
        if job.config.enabled:
            error = JobError(kind=ERROR_TIMEOUT, message="deadline",
                             job_name=job.name,
                             config_name=job.config.name,
                             attempt=job.attempt)
            return JobOutcome(entry=None, error=error.render(),
                              error_info=error)
        return real(job, capture)

    monkeypatch.setattr(pool_module, "execute_job", runner)
    batch = _service(
        jobs=1, retry=RetryPolicy(max_retries=0),
    ).compile_batch([_jobs()[0]])
    [result] = batch.results
    assert result.ok
    assert result.rung == "scalar"
    assert any(r.category == "resilience" for r in result.remarks)
    assert batch.stats.degrade_scalar == 1
    assert batch.stats.errors == 0


# ---------------------------------------------------------------------------
# Cache faults
# ---------------------------------------------------------------------------


def test_corrupted_cache_writes_degrade_to_recompiles(tmp_path):
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="cache-corrupt", rate=1.0),),
        seed=0,
    )
    disk = DiskCache(tmp_path, fault_plan=plan)
    jobs = _jobs()
    cold_service = _service(
        jobs=1, cache=CompileCache(memory=None, memory_capacity=0,
                                   disk=disk))
    cold = cold_service.compile_batch(jobs)
    assert cold.ok
    assert disk.faults_fired  # the writes really were torn
    warm = cold_service.compile_batch(jobs)
    assert warm.ok
    # Every read of a torn entry must be a miss-and-recompile.
    assert warm.stats.disk_hits == 0
    assert warm.stats.vectorizer_invocations == len(jobs)
    assert disk.corrupt >= 1
    assert _fingerprint(warm) == _fingerprint(cold)


def test_enospc_cache_writes_degrade_to_memory_only(tmp_path):
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="cache-enospc", rate=1.0),),
        seed=0,
    )
    disk = DiskCache(tmp_path, fault_plan=plan)
    cache = CompileCache(memory=MemoryCache(256), disk=disk)
    service = _service(jobs=1, cache=cache)
    jobs = _jobs()
    cold = service.compile_batch(jobs)
    assert cold.ok
    assert disk.faults_fired
    # Nothing landed on disk, but the memory tier still serves hits.
    warm = service.compile_batch(jobs)
    assert warm.ok
    assert warm.stats.memory_hits == len(jobs)
    assert warm.stats.disk_hits == 0


def test_slow_cache_reads_add_latency_not_failure(tmp_path):
    plan = ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="cache-slow", rate=1.0,
                                seconds=0.01),),
        seed=0,
    )
    jobs = _jobs()[:2]
    disk = DiskCache(tmp_path)
    service = _service(
        jobs=1, cache=CompileCache(memory=None, memory_capacity=0,
                                   disk=disk))
    cold = service.compile_batch(jobs)
    assert cold.ok
    disk.fault_plan = plan
    warm = service.compile_batch(jobs)
    assert warm.ok
    assert warm.stats.disk_hits == len(jobs)
    assert ("cache-slow", jobs[0].cache_key()) in disk.faults_fired


# ---------------------------------------------------------------------------
# The CLI chaos surface (what CI's chaos-smoke job drives)
# ---------------------------------------------------------------------------


def test_cli_chaos_batch_writes_a_faithful_report(tmp_path):
    import json

    clean_report = tmp_path / "clean.json"
    chaos_report = tmp_path / "chaos.json"
    base = ["batch", "catalog", "--configs", "lslp", "--jobs", "2",
            "--retry-backoff", "0.005"]
    assert main(base + ["--report-out", str(clean_report)]) == 0
    assert main(base + [
        "--cache", "disk", "--cache-dir", str(tmp_path / "cache"),
        "--chaos", "worker-kill:0.5,cache-corrupt:0.5",
        "--chaos-seed", "7", "--job-timeout", "30",
        "--report-out", str(chaos_report),
    ]) == 0

    clean = json.loads(clean_report.read_text())
    chaos = json.loads(chaos_report.read_text())
    assert chaos["ok"] is True
    assert chaos["lost_jobs"] == 0
    assert chaos["stats"]["retries"] > 0
    assert chaos["stats"]["retry_succeeded"] > 0
    assert {j["status"] for j in chaos["jobs"]} == {"compiled"}

    def hashes(doc):
        return {(j["name"], j["config"]): j["ir_sha256"]
                for j in doc["jobs"]}

    assert hashes(clean) == hashes(chaos)
    assert any(j["attempts"] > 1 for j in chaos["jobs"])
