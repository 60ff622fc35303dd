"""Backend integration with the compilation service.

Covers the CACHE_SCHEMA bump (old entries are clean misses, never
corruption), the backend ingredient in the cache key, generated-source
storage and warm serving, the two permanent backend failure kinds, the
degradation ladder's shed-to-interpreter round, and the cross-check
taking the oracle's verified runs as its interpreter side.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro.backend.emit as emit_mod
import repro.backend.runtime as runtime_mod
import repro.backend.validate as validate_mod
import repro.service.pool as pool_module
from repro.backend import TieredExecutor, load_compiled
from repro.costmodel.targets import skylake_like
from repro.interp.differential import seeded_arg_sets
from repro.ir import Call, F64, Function, I64, IRBuilder, Module, PointerType
from repro.kernels.catalog import ALL_KERNELS
from repro.opt import compile_function
from repro.robustness import DifferentialOracle
from repro.service import (
    CompilationService,
    CompileCache,
    DiskCache,
    execute_job,
    job_for_kernel,
    job_for_module,
    job_for_source,
    JobOutcome,
    MemoryCache,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.service.cache import CACHE_SCHEMA, StaleSchemaError
from repro.service.jobs import JOB_BACKENDS
from repro.service.resilience import (
    BACKEND_SHED_KINDS,
    ERROR_BACKEND_MISMATCH,
    ERROR_BACKEND_UNSUPPORTED,
    ERROR_WORKER_CRASHED,
    is_retryable,
    JobError,
)
from repro.slp.vectorizer import VectorizerConfig

KERNEL = next(iter(ALL_KERNELS.values()))


def _job(**overrides):
    return job_for_kernel(KERNEL, VectorizerConfig.lslp(),
                          skylake_like(), **overrides)


def pointer_arg_module():
    m = Module("ptrarg")
    f = Function("touch", [("p", PointerType(F64)), ("i", I64)])
    f.return_type = F64
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.load(b.gep(f.argument("p"), f.argument("i"))))
    m.add_function(f)
    return m


def _pointer_job(**overrides):
    overrides.setdefault("verify_runs", 0)
    return job_for_module("ptrarg", pointer_arg_module(),
                          VectorizerConfig.lslp(), skylake_like(),
                          **overrides)


# ---------------------------------------------------------------------------
# Schema migration (satellite 1)
# ---------------------------------------------------------------------------


def test_schema_is_bumped():
    assert CACHE_SCHEMA >= 2


def test_old_schema_entry_is_clean_miss(tmp_path):
    """A healthy entry written by an older release must read as a
    miss — counted as stale schema, not corruption — and be evicted
    so the write-through can replace it."""
    disk = DiskCache(tmp_path)
    outcome = execute_job(_job())
    assert outcome.error == ""
    entry = outcome.entry
    disk.put(entry.key, entry)
    path = disk._path(entry.key)
    data = json.loads(path.read_text())
    data["schema"] = CACHE_SCHEMA - 1
    path.write_text(json.dumps(data))

    assert disk.get(entry.key) is None
    assert disk.stale_schema == 1
    assert disk.corrupt == 0
    assert disk.misses == 1
    assert not path.exists()

    # a recompile write-through restores service
    disk.put(entry.key, entry)
    warm = disk.get(entry.key)
    assert warm is not None and warm.schema == CACHE_SCHEMA


def test_from_json_raises_typed_error():
    outcome = execute_job(_job())
    data = json.loads(outcome.entry.to_json())
    data["schema"] = 1
    try:
        from repro.service.cache import CacheEntry
        CacheEntry.from_json(json.dumps(data))
    except StaleSchemaError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected StaleSchemaError")


# ---------------------------------------------------------------------------
# Cache key + stored artifact
# ---------------------------------------------------------------------------


def test_backend_is_a_cache_key_ingredient():
    keys = {_job(backend=b).cache_key()
            for b in ("interp", "compiled", "auto")}
    assert len(keys) == 3


def test_emit_version_keys_only_source_bearing_jobs(monkeypatch):
    """Compiled and auto entries store generated source, which loads
    only under the emitter version that wrote it; interp entries carry
    none, so their keys survive an emitter change."""
    before = {b: _job(backend=b).cache_key() for b in JOB_BACKENDS}
    monkeypatch.setattr(emit_mod, "EMIT_VERSION", emit_mod.EMIT_VERSION + 1)
    after = {b: _job(backend=b).cache_key() for b in JOB_BACKENDS}
    assert after["interp"] == before["interp"]
    assert after["compiled"] != before["compiled"]
    assert after["auto"] != before["auto"]


def test_entry_from_another_emitter_version_is_a_miss(tmp_path,
                                                      monkeypatch):
    """A disk entry written under another emitter version is never
    served to a compiled job: it misses and recompiles to source this
    runtime loads.  The interp job's entry stays a warm hit."""
    current = emit_mod.EMIT_VERSION
    compiled_job = _job(backend="compiled", verify_runs=1)
    interp_job = _job(backend="interp")

    def service():
        return CompilationService(cache=CompileCache(
            memory=MemoryCache(), disk=DiskCache(tmp_path)))

    with monkeypatch.context() as patch:
        for module in (emit_mod, runtime_mod):
            patch.setattr(module, "EMIT_VERSION", current + 1)
        old = service()
        stale = old.compile_job(compiled_job)
        assert stale.error == ""
        assert f"'version': {current + 1}" in stale.entry.generated_source
        assert old.compile_job(interp_job).error == ""

    fresh_svc = service()
    fresh = fresh_svc.compile_job(compiled_job)
    assert fresh.error == "" and fresh.cache_tier == ""
    assert fresh_svc.stats.vectorizer_invocations > 0
    assert f"'version': {current}" in fresh.entry.generated_source
    assert load_compiled(fresh.entry.generated_source).supports(
        KERNEL.entry)
    assert fresh_svc.compile_job(interp_job).cache_tier == "disk"


def test_compiled_job_stores_generated_source():
    outcome = execute_job(_job(backend="compiled", verify_runs=2))
    assert outcome.error == ""
    entry = outcome.entry
    assert entry.backend == "compiled"
    assert "def " in entry.generated_source
    assert entry.schema == CACHE_SCHEMA


def test_interp_job_stores_no_source():
    outcome = execute_job(_job(backend="interp"))
    assert outcome.error == ""
    assert outcome.entry.backend == "interp"
    assert outcome.entry.generated_source == ""


def test_warm_disk_hit_serves_generated_source(tmp_path):
    job = _job(backend="compiled", verify_runs=1)
    cold_cache = CompileCache(memory=MemoryCache(),
                              disk=DiskCache(tmp_path))
    svc = CompilationService(cache=cold_cache)
    cold = svc.compile_job(job)
    assert cold.error == "" and cold.cache_tier == ""
    source = cold.entry.generated_source
    assert source

    # a fresh service over the same directory: pure disk hit, byte-equal
    warm_svc = CompilationService(cache=CompileCache(
        memory=MemoryCache(), disk=DiskCache(tmp_path)))
    warm = warm_svc.compile_job(job)
    assert warm.cache_tier == "disk"
    assert warm.entry.generated_source == source
    assert warm_svc.stats.vectorizer_invocations == 0


# ---------------------------------------------------------------------------
# Permanent failure kinds (satellite 2)
# ---------------------------------------------------------------------------


def test_backend_kinds_are_permanent():
    assert not is_retryable(ERROR_BACKEND_MISMATCH)
    assert not is_retryable(ERROR_BACKEND_UNSUPPORTED)
    assert BACKEND_SHED_KINDS == {ERROR_BACKEND_MISMATCH,
                                  ERROR_BACKEND_UNSUPPORTED}


def test_unsupported_construct_fails_compiled_jobs():
    outcome = execute_job(_pointer_job(backend="compiled"))
    assert outcome.entry is None
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_BACKEND_UNSUPPORTED
    assert "pointer-argument" in outcome.error


def test_auto_jobs_fall_back_with_remark():
    outcome = execute_job(_pointer_job(backend="auto"))
    assert outcome.error == ""
    entry = outcome.entry
    # auto keeps the generated source (other functions in the module
    # may still be servable); the runtime falls back per function
    assert entry.backend == "auto"
    backend_remarks = [r for r in entry.remarks
                       if r.get("category") == "backend"]
    assert backend_remarks
    assert "pointer-argument" in backend_remarks[0]["message"]


def test_divergence_fails_compiled_jobs(monkeypatch):
    """A compiled-vs-interpreter mismatch is the one bug class this
    subsystem exists to catch: it must be a permanent, named failure."""

    class FakeDivergence:
        ok = False
        runs = 1
        compiled_runs = 1

        def render(self):
            return "run 0: return value diverged (injected)"

    monkeypatch.setattr(validate_mod, "cross_check",
                        lambda *a, **k: FakeDivergence())
    outcome = execute_job(_job(backend="compiled", verify_runs=1))
    assert outcome.entry is None
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_BACKEND_MISMATCH
    assert "diverged" in outcome.error


# ---------------------------------------------------------------------------
# Degradation ladder: shed to the interpreter tier (satellite 2)
# ---------------------------------------------------------------------------


def test_ladder_sheds_compiled_failure_to_interp():
    svc = CompilationService(cache=CompileCache(memory=MemoryCache()))
    res = svc.compile_job(_pointer_job(backend="compiled"))
    assert res.error == ""
    # the submitted job is reported unchanged; the artifact records
    # the tier that actually produced it
    assert res.job.backend == "compiled"
    assert res.entry.backend == "interp"
    shed = [r for r in res.entry.remarks
            if r.get("category") == "backend"
            and "shed to the interpreter" in r.get("message", "")]
    assert shed
    assert svc.stats.backend_shed == 1
    assert svc.stats.refused == 0


def test_shed_artifact_is_not_cached():
    """The interp-tier artifact the shed round produced carries the
    shed's remark, which a cold interp compile of the same job does
    not: it is not the true artifact for the interp key, so a later
    interp job misses and matches the cold compile."""
    cold = CompilationService(cache=None).compile_job(
        _pointer_job(backend="interp"))
    svc = CompilationService(cache=CompileCache(memory=MemoryCache()))
    svc.compile_job(_pointer_job(backend="compiled"))
    assert svc.stats.stores == 0
    again = svc.compile_job(_pointer_job(backend="interp"))
    assert again.cache_tier == ""
    assert again.entry.remarks == cold.entry.remarks
    assert again.ir_text == cold.ir_text


def test_mismatch_sheds_too(monkeypatch):
    class FakeDivergence:
        ok = False

        def render(self):
            return "run 0: memory diverged (injected)"

    monkeypatch.setattr(validate_mod, "cross_check",
                        lambda *a, **k: FakeDivergence())
    svc = CompilationService(cache=CompileCache(memory=MemoryCache()))
    res = svc.compile_job(_job(backend="compiled", verify_runs=1))
    assert res.error == ""
    assert res.entry.backend == "interp"
    assert svc.stats.backend_shed == 1


def test_backend_failures_do_not_open_the_breaker():
    """A backend failure follows a successful compile, so it is no
    breaker failure: five compiled-tier jobs that all shed to the
    interpreter (more than the default threshold of three) stay at the
    full rung with only the backend remark."""
    svc = CompilationService(cache=None)
    batch = svc.compile_batch(
        [_pointer_job(backend="compiled") for _ in range(5)])
    assert batch.stats.breaker_shed == 0
    assert batch.stats.backend_shed == 5
    for res in batch.results:
        assert res.ok and res.rung == "full" and not res.degraded
        assert [r.category for r in res.remarks] == ["backend"]


def test_refusal_carries_the_submitted_job(monkeypatch):
    """An O3 compiled-tier job sheds to the interpreter, whose re-run
    crashes until the ladder refuses it: the refusal reports the job
    the caller submitted, not the rewritten interp one."""
    def runner(job, capture=None):
        if job.backend == "interp":
            error = JobError(kind=ERROR_WORKER_CRASHED, message="crash",
                             job_name=job.name,
                             config_name=job.config.name)
            return JobOutcome(entry=None, error=error.render(),
                              error_info=error)
        return execute_job(job, capture)

    monkeypatch.setattr(pool_module, "execute_job", runner)
    svc = CompilationService(cache=None, resilience=ResiliencePolicy(
        retry=RetryPolicy(max_retries=0)))
    job = job_for_module("ptrarg", pointer_arg_module(),
                         VectorizerConfig.o3(), skylake_like(),
                         backend="compiled", verify_runs=0)
    res = svc.compile_job(job)
    assert res.rung == "refuse" and "refused" in res.error
    assert res.job is job
    assert res.job.backend == "compiled"


def test_stats_render_mentions_backend_shed():
    svc = CompilationService(cache=CompileCache(memory=MemoryCache()))
    svc.compile_job(_pointer_job(backend="compiled"))
    assert "1 shed to interp" in svc.stats.render()


# ---------------------------------------------------------------------------
# The cross-check reuses the oracle's verified runs
# ---------------------------------------------------------------------------


def test_verified_miss_interprets_twice_and_randomizes_once(exec_counts):
    """Per function and verify run: the oracle's reference and
    transformed runs on clones of one image; the cross-check interprets
    nothing more and draws no image of its own."""
    outcome = execute_job(_job(backend="compiled", verify_runs=2))
    assert outcome.error == ""
    assert len(outcome.module.functions) == 1
    assert exec_counts == {"runs": 2 * 2, "randomizations": 1 * 2}


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_cross_check_same_with_and_without_oracle_runs(name):
    kernel = ALL_KERNELS[name]
    module, func = kernel.build()
    target = skylake_like()
    args = dict(kernel.default_args)
    oracle = DifferentialOracle.sweeping(module, func, args=args, runs=2,
                                         target=target)
    compile_function(func, VectorizerConfig.lslp(), target,
                     guard="guarded", oracle=oracle)
    runs = oracle.runs_for(func, target)
    assert len(runs) == 2
    shared = validate_mod.cross_check(module, func, target, base_args=args,
                                      runs=2, verified=runs)
    alone = validate_mod.cross_check(module, func, target, base_args=args,
                                     runs=2)
    assert shared.ok
    assert shared == alone


CALLER = """
long A[64], B[64];
long fill_to(long i) {
    for (long j = 0; j < i; j = j + 1) {
        B[j] = j * 2;
    }
    return B[0];
}
void kernel(long i) {
    A[i + 0] = fill_to(i) + B[i + 0];
    A[i + 1] = B[i + 1] * 3;
}
"""


def test_caller_with_a_call_interprets_its_own_side(monkeypatch):
    """The loop keeps ``fill_to`` out of line, so ``kernel`` still calls
    it after compilation: its cross-check interprets on its own, while
    the call-free callee takes the oracle's runs."""
    shared: dict[str, int] = {}
    real = validate_mod.cross_check

    def spying(module, func, target, **kwargs):
        shared[func.name] = len(kwargs["verified"])
        return real(module, func, target, **kwargs)

    monkeypatch.setattr(validate_mod, "cross_check", spying)
    outcome = execute_job(job_for_source(
        "caller", CALLER, VectorizerConfig.lslp(), skylake_like(),
        backend="compiled", verify_runs=2, args={"i": 5},
    ))
    assert outcome.error == ""
    assert outcome.entry.backend == "compiled"
    caller = outcome.module.get_function("kernel")
    assert any(isinstance(inst, Call) for inst in caller.instructions())
    assert shared == {"fill_to": 2, "kernel": 0}


def test_shared_run_still_catches_a_diverging_compiled_tier(
        monkeypatch, exec_counts):
    real_run = TieredExecutor.run

    def diverging(self, func_name, args=None, **kwargs):
        tier_run = real_run(self, func_name, args, **kwargs)
        name = next(iter(self.memory.arrays()))
        values = self.memory.get_array(name)
        values[0] += 1
        self.memory.set_array(name, values)
        return tier_run

    monkeypatch.setattr(TieredExecutor, "run", diverging)
    outcome = execute_job(_job(backend="compiled", verify_runs=2))
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_BACKEND_MISMATCH
    assert "interp" in outcome.error and "compiled" in outcome.error
    # Only the oracle interpreted: the cross-check's interpreter side
    # was the shared run.
    assert exec_counts["runs"] == 2 * 2


def test_runs_with_other_args_or_seeds_are_ignored(exec_counts):
    module, func = KERNEL.build()
    target = skylake_like()
    args = dict(KERNEL.default_args)
    oracle = DifferentialOracle(module, args=args, seeds=(0, 1),
                                target=target)
    compile_function(func, VectorizerConfig.lslp(), target,
                     guard="guarded", oracle=oracle)
    runs = oracle.runs_for(func, target)
    assert [run.args for run in runs] == [args, args]
    assert seeded_arg_sets(func, args, 2, 0)[1] != args
    expected = validate_mod.cross_check(module, func, target,
                                        base_args=args, runs=2)

    def check(verified, base_seed=0):
        exec_counts.clear()
        result = validate_mod.cross_check(
            module, func, target, base_args=args, runs=2,
            base_seed=base_seed, verified=verified,
        )
        return result, dict(exec_counts)

    # Run 0 matches seed 0 and the base args; run 1's args differ.
    assert check(runs) == (expected, {"runs": 1, "randomizations": 1})
    # Seeds 7 and 8 match no kept run.
    result, counts = check(runs, base_seed=7)
    assert result.ok
    assert counts == {"runs": 2, "randomizations": 2}
    # An argument of another type is another run (8 == 8.0).
    retyped = replace(runs[0], args={"i": float(args["i"])})
    assert check([retyped]) == (expected, {"runs": 2, "randomizations": 2})
