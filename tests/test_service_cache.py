"""Tests for the content-addressed compile cache (repro.service.cache).

The key contract: stable across processes and hash seeds, and a miss on
*any* ingredient change (payload, config, target, pipeline, guard
settings).  The storage contract: disk entries round-trip through JSON,
corruption is a miss (never a crash), and the LRU memory tier evicts in
insertion order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.costmodel.targets import expensive_shuffle, skylake_like
from repro.kernels.catalog import ALL_KERNELS
from repro.service import (
    CacheEntry,
    CompileCache,
    compute_key,
    DiskCache,
    execute_job,
    job_for_kernel,
    job_for_source,
    MemoryCache,
)
from repro.robustness import Budget
from repro.service.jobs import PIPELINE_NAME
from repro.service.serde import report_from_dict, report_to_dict
from repro.slp.vectorizer import VectorizerConfig

KERNEL = next(iter(ALL_KERNELS.values()))


def _job(config=None, **overrides):
    config = config if config is not None else VectorizerConfig.lslp()
    return job_for_kernel(KERNEL, config, skylake_like(), **overrides)


def _entry(job=None) -> CacheEntry:
    outcome = execute_job(job if job is not None else _job())
    assert outcome.error == ""
    return outcome.entry


# ---------------------------------------------------------------------------
# Key stability
# ---------------------------------------------------------------------------


def test_key_is_deterministic_within_process():
    assert _job().cache_key() == _job().cache_key()


def test_key_is_stable_across_processes():
    """The key must not depend on PYTHONHASHSEED or object identity:
    a warm disk cache from one process must hit in the next."""
    kernel_name = KERNEL.name
    program = (
        "from repro.costmodel.targets import skylake_like\n"
        "from repro.kernels.catalog import ALL_KERNELS\n"
        "from repro.service import job_for_kernel\n"
        "from repro.slp.vectorizer import VectorizerConfig\n"
        f"kernel = ALL_KERNELS[{kernel_name!r}]\n"
        "job = job_for_kernel(kernel, VectorizerConfig.lslp(),"
        " skylake_like())\n"
        "print(job.cache_key())\n"
    )
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    keys = set()
    for hash_seed in ("1", "4242"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", program], env=env,
            capture_output=True, text=True, check=True,
        )
        keys.add(proc.stdout.strip())
    keys.add(_job().cache_key())
    assert len(keys) == 1


@pytest.mark.parametrize("other", [
    _job(VectorizerConfig.slp()),
    _job(VectorizerConfig.lslp(look_ahead_depth=2, name="LSLP-LA2")),
    job_for_kernel(KERNEL, VectorizerConfig.lslp(), expensive_shuffle()),
    _job(guard="strict"),
    _job(verify_runs=3),
    _job(verify_seed=7),
    _job(args={"i": 3}),
])
def test_key_misses_on_any_ingredient_change(other):
    assert other.cache_key() != _job().cache_key()


def test_key_misses_on_source_change():
    base = job_for_source("k", "void kernel() { }",
                          VectorizerConfig.lslp())
    changed = job_for_source("k", "void kernel() { /*x*/ }",
                             VectorizerConfig.lslp())
    assert base.cache_key() != changed.cache_key()


def test_key_misses_on_pipeline_change():
    config = VectorizerConfig.lslp()
    target = skylake_like()
    a = compute_key("source", KERNEL.source, config, target,
                    pipeline=PIPELINE_NAME)
    b = compute_key("source", KERNEL.source, config, target,
                    pipeline="o3+slp/v1")
    assert a != b


# ---------------------------------------------------------------------------
# Memory tier
# ---------------------------------------------------------------------------


def test_memory_lru_evicts_oldest():
    cache = MemoryCache(capacity=2)
    entry = _entry()
    for key in ("a", "b", "c"):
        cache.put(key, entry)
    assert cache.get("a") is None
    assert cache.get("b") is entry and cache.get("c") is entry
    assert cache.evictions == 1


def test_memory_get_refreshes_recency():
    cache = MemoryCache(capacity=2)
    entry = _entry()
    cache.put("a", entry)
    cache.put("b", entry)
    cache.get("a")          # "b" is now least-recent
    cache.put("c", entry)
    assert cache.get("b") is None
    assert cache.get("a") is entry


# ---------------------------------------------------------------------------
# Disk tier
# ---------------------------------------------------------------------------


def test_disk_roundtrip(tmp_path):
    entry = _entry()
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    loaded = disk.get(entry.key)
    assert loaded is not None
    assert loaded.ir_text == entry.ir_text
    assert loaded.report == entry.report
    assert loaded.static_cost == entry.static_cost
    assert loaded.compile_seconds == entry.compile_seconds


def test_corrupted_disk_entry_is_a_miss_not_a_crash(tmp_path):
    entry = _entry()
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    path = disk._path(entry.key)
    path.write_text("{ not json")
    assert disk.get(entry.key) is None
    assert not path.exists()          # poisoned entry is dropped
    assert disk.corrupt == 1
    # and the slot is usable again
    disk.put(entry.key, entry)
    assert disk.get(entry.key) is not None


def test_truncated_ir_payload_is_a_miss(tmp_path):
    """Valid JSON whose IR no longer parses must also be treated as
    corruption: the rehydrate check runs on every disk hit."""
    entry = _entry()
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    path = disk._path(entry.key)
    data = json.loads(path.read_text())
    data["ir_text"] = data["ir_text"][: len(data["ir_text"]) // 2]
    path.write_text(json.dumps(data))
    assert disk.get(entry.key) is None
    assert disk.corrupt == 1


@pytest.mark.parametrize("config", [VectorizerConfig.o3(),
                                    VectorizerConfig.lslp()],
                         ids=lambda config: config.name)
def test_memory_hit_computes_what_the_cold_compile_did(config):
    """A hit rehydrates the printed IR; an inlined name that collided
    with the caller's used to rebind a use to the wrong value there."""
    from repro.frontend import compile_kernel_source
    from repro.interp import compare_runs
    from repro.service import CompilationService

    source = """
long A[64], B[64], C[64];
long helper(long i) { A[i + 2] = B[i + 3] * C[i + 4]; return A[i + 0]; }
void kernel(long i) {
    long x = C[i + 9] * 3;
    long y = C[i + 10] * 5;
    B[i + 8] = x + helper(i);
    B[i + 9] = y + x;
}
"""
    service = CompilationService(cache=CompileCache(memory_capacity=16))
    job = job_for_source("collide", source, config, args={"i": 0})
    reference = compile_kernel_source(source)
    for tier in ("", "memory"):
        result = service.compile_job(job)
        assert result.cache_tier == tier
        module = result.module
        outcome = compare_runs(
            (reference, reference.get_function("kernel")),
            (module, module.get_function("kernel")), args={"i": 0},
            seed=5,
        )
        assert outcome.equivalent, (tier, outcome.detail)


def test_key_mismatch_inside_entry_is_a_miss(tmp_path):
    entry = _entry()
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    path = disk._path(entry.key)
    data = json.loads(path.read_text())
    data["key"] = "0" * 64
    path.write_text(json.dumps(data))
    assert disk.get(entry.key) is None


def test_schema_bump_invalidates_old_entries(tmp_path):
    entry = _entry()
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    path = disk._path(entry.key)
    data = json.loads(path.read_text())
    data["schema"] = 0
    path.write_text(json.dumps(data))
    assert disk.get(entry.key) is None


# ---------------------------------------------------------------------------
# Combined tiers
# ---------------------------------------------------------------------------


def test_entry_with_report_remarks_copy_loads(tmp_path):
    """Entries written when the report kept a second copy of the
    remarks (``report["remarks"]``) still load; the entry's own list
    is the one that is served."""
    budget = Budget(max_seconds=0.0)
    entry = _entry(_job(VectorizerConfig.lslp().with_budget(budget)))
    assert entry.remarks and "remarks" not in entry.report
    entry.report["remarks"] = list(entry.remarks)
    disk = DiskCache(tmp_path)
    disk.put(entry.key, entry)
    loaded = disk.get(entry.key)
    assert loaded is not None and loaded.remarks == entry.remarks
    report = report_from_dict(loaded.report)
    assert report_to_dict(report) == {
        key: value for key, value in entry.report.items()
        if key != "remarks"
    }


def test_disk_hit_promotes_to_memory(tmp_path):
    entry = _entry()
    cache = CompileCache.with_disk(tmp_path)
    cache.put(entry.key, entry)
    cache.memory.clear()
    got, tier = cache.get(entry.key)
    assert got is not None and tier == "disk"
    got, tier = cache.get(entry.key)
    assert got is not None and tier == "memory"


def test_disk_survives_across_cache_instances(tmp_path):
    entry = _entry()
    CompileCache.with_disk(tmp_path).put(entry.key, entry)
    got, tier = CompileCache.with_disk(tmp_path).get(entry.key)
    assert got is not None and tier == "disk"
    assert got.ir_text == entry.ir_text
