"""Tests for the service resilience layer (repro.service.resilience).

Unit coverage for the policy objects — deterministic jittered backoff,
the degradation ladder's rung arithmetic, the circuit breaker state
machine, structured job errors — plus integration coverage of the pool
retry loop (serial executor, injectable clocks) and the service's
ladder rounds via a monkeypatched job runner, where one table drives
every shed reason down the ladder and checks its bookkeeping.  The
hypothesis fuzz at the bottom drives arbitrary disk-cache corruption
through the read path: every corruption must degrade to a
miss-and-recompile, never an exception or a stale hit.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.targets import skylake_like
from repro.kernels.catalog import ALL_KERNELS
from repro.robustness import Budget, ServiceFaultPlan, ServiceFaultSpec
from repro.service import (
    AdmissionPolicy,
    CompilationService,
    CompileCache,
    DiskCache,
    execute_job,
    job_for_kernel,
    JobOutcome,
    MemoryCache,
    ResiliencePolicy,
    RetryPolicy,
    run_jobs,
    TelemetrySession,
)
from repro.service.resilience import (
    BACKEND_SHED_KINDS,
    BREAKER_CLOSED,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    ERROR_COMPILE,
    ERROR_TIMEOUT,
    ERROR_WORKER_CRASHED,
    is_retryable,
    job_at_rung,
    JobError,
    next_rung,
    RETRYABLE_KINDS,
    ROUTE_FULL,
    ROUTE_PROBE,
    ROUTE_SHED,
    RUNG_FULL,
    RUNG_REDUCED,
    RUNG_REFUSE,
    RUNG_SCALAR,
)
from repro.slp.vectorizer import VectorizerConfig

KERNELS = list(ALL_KERNELS.values())
KERNEL = KERNELS[0]


def _job(config=None, **overrides):
    config = config if config is not None else VectorizerConfig.lslp()
    return job_for_kernel(KERNEL, config, skylake_like(), **overrides)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_key_and_attempt():
    policy = RetryPolicy(seed=3)
    assert (policy.backoff_seconds("k1", 1)
            == policy.backoff_seconds("k1", 1))
    assert (policy.backoff_seconds("k1", 1)
            != policy.backoff_seconds("k2", 1))
    assert (policy.backoff_seconds("k1", 1)
            != policy.backoff_seconds("k1", 2))


def test_backoff_grows_within_jitter_band_and_caps():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_cap=0.3, jitter=0.5)
    for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.3), (9, 0.3)):
        delay = policy.backoff_seconds("key", attempt)
        assert raw * 0.5 <= delay <= raw * 1.5
    assert policy.backoff_seconds("key", 0) == 0.0


def test_backoff_without_jitter_is_exact():
    policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0,
                         backoff_cap=10.0, jitter=0.0)
    assert policy.backoff_seconds("k", 1) == pytest.approx(0.05)
    assert policy.backoff_seconds("k", 3) == pytest.approx(0.2)


def test_error_kind_classification():
    assert is_retryable(ERROR_WORKER_CRASHED)
    assert is_retryable(ERROR_TIMEOUT)
    assert not is_retryable(ERROR_COMPILE)
    assert not is_retryable("refused")


def test_job_error_render_carries_attribution():
    error = JobError(kind=ERROR_WORKER_CRASHED, message="boom",
                     job_name="k", config_name="LSLP",
                     cache_key="abcdef0123456789", functions=("f", "g"),
                     attempt=1, traceback="Trace | tail")
    text = error.render()
    assert "worker-crashed" in text
    assert "attempt 2" in text
    assert "abcdef012345" in text
    assert "fn f,g" in text
    assert "boom" in text
    assert "tail" in text
    data = error.to_dict()
    assert data["retryable"] is True
    assert data["functions"] == ["f", "g"]


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


def test_rung_full_is_identity():
    job = _job()
    assert job_at_rung(job, RUNG_FULL) is job


def test_reduced_rung_strips_exhaustive_selection_and_caps_budget():
    config = replace(VectorizerConfig.lslp(),
                     plan_select="module-exhaustive")
    job = _job(config)
    reduced = job_at_rung(job, RUNG_REDUCED)
    assert reduced.config.plan_select == "module-greedy"
    assert reduced.config.budget is not None
    cap = Budget.reduced()
    assert (reduced.config.budget.max_lookahead_evals
            <= cap.max_lookahead_evals)


def test_reduced_rung_takes_elementwise_min_with_existing_budget():
    tight = Budget(max_lookahead_evals=10)
    job = _job(replace(VectorizerConfig.lslp(),
                       budget=tight))
    reduced = job_at_rung(job, RUNG_REDUCED)
    assert reduced.config.budget.max_lookahead_evals == 10
    assert (reduced.config.budget.max_seconds
            == Budget.reduced().max_seconds)


def test_scalar_rung_disables_vectorization():
    scalar = job_at_rung(_job(), RUNG_SCALAR)
    assert scalar.config.enabled is False


@pytest.mark.parametrize("config, rungs", [
    (replace(VectorizerConfig.lslp(), plan_select="module-exhaustive"),
     [RUNG_FULL, RUNG_REDUCED, RUNG_SCALAR, RUNG_REFUSE]),
    # vectorization off: no rung below full changes the compile
    (VectorizerConfig.o3(), [RUNG_FULL, RUNG_REFUSE]),
], ids=["lslp-exhaustive", "o3"])
def test_next_rung_descends_and_bottoms_out(config, rungs):
    job = _job(config)
    for rung, lower in zip(rungs, rungs[1:]):
        assert next_rung(job, rung) == lower


@pytest.mark.parametrize("config, lower", [
    # Already compiled with the reduced rung's exact posture: stepping
    # down must go straight to scalar, not re-run the identical compile.
    (replace(VectorizerConfig.lslp(), plan_select="module-greedy",
             budget=Budget.reduced()), RUNG_SCALAR),
    (VectorizerConfig.o3(), RUNG_REFUSE),
], ids=["reduced-posture", "o3"])
def test_next_rung_skips_rungs_that_do_not_change_the_job(config, lower):
    job = _job(config)
    assert job_at_rung(job, RUNG_REDUCED) == job
    assert next_rung(job, RUNG_FULL) == lower


# ---------------------------------------------------------------------------
# The circuit breaker
# ---------------------------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
    for _ in range(2):
        breaker.record_failure("LSLP")
    assert breaker.state("LSLP") == BREAKER_CLOSED
    breaker.record_failure("LSLP")
    assert breaker.state("LSLP") == BREAKER_OPEN
    assert breaker.opened == 1


def test_breaker_success_resets_the_failure_streak():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
    breaker.record_failure("LSLP")
    breaker.record_success("LSLP")
    breaker.record_failure("LSLP")
    assert breaker.state("LSLP") == BREAKER_CLOSED


def test_breaker_sheds_then_probes_then_closes_on_success():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                           probe_after=2))
    breaker.record_failure("LSLP")
    assert breaker.route("LSLP") == ROUTE_SHED
    assert breaker.route("LSLP") == ROUTE_SHED
    assert breaker.route("LSLP") == ROUTE_PROBE
    # While the probe is out, everything else keeps shedding.
    assert breaker.route("LSLP") == ROUTE_SHED
    breaker.record_success("LSLP", probe=True)
    assert breaker.state("LSLP") == BREAKER_CLOSED
    assert breaker.route("LSLP") == ROUTE_FULL
    assert breaker.closed == 1


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                           probe_after=0))
    breaker.record_failure("LSLP")
    assert breaker.route("LSLP") == ROUTE_PROBE
    breaker.record_failure("LSLP", probe=True)
    assert breaker.state("LSLP") == BREAKER_OPEN
    assert breaker.route("LSLP") == ROUTE_PROBE  # probe_after=0
    breaker.record_success("LSLP", probe=True)
    assert breaker.state("LSLP") == BREAKER_CLOSED


def test_breaker_shards_are_independent_and_snapshot():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
    breaker.record_failure("bad")
    assert breaker.route("good") == ROUTE_FULL
    assert breaker.route("bad") == ROUTE_SHED
    snap = breaker.snapshot()
    assert snap["bad"]["state"] == BREAKER_OPEN
    assert snap["bad"]["shed_total"] == 1


def test_breaker_threshold_zero_disables():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=0))
    for _ in range(10):
        breaker.record_failure("LSLP")
    assert breaker.route("LSLP") == ROUTE_FULL


# ---------------------------------------------------------------------------
# Pool retry loop (serial executor, real execute_job, injected chaos)
# ---------------------------------------------------------------------------


def _crashy_plan(max_fires=1, rate=1.0):
    return ServiceFaultPlan(
        specs=(ServiceFaultSpec(site="worker-kill", rate=rate,
                                max_fires=max_fires),),
        seed=0,
    )


FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.001,
                         backoff_cap=0.002)


def test_serial_pool_retries_an_injected_crash_to_success():
    jobs = [(0, _job(chaos=_crashy_plan()))]
    events = []
    [(index, outcome)] = list(run_jobs(iter(jobs), workers=1,
                                       retry=FAST_RETRY,
                                       on_event=events.append))
    assert index == 0
    assert outcome.error == ""
    assert outcome.attempts == 2
    kinds = [e.kind for e in events]
    assert kinds.count("retry") == 1
    assert events[0].delay > 0.0


def test_serial_pool_exhausts_the_retry_budget():
    jobs = [(0, _job(chaos=_crashy_plan(max_fires=99)))]
    [(_, outcome)] = list(run_jobs(iter(jobs), workers=1,
                                   retry=FAST_RETRY))
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_WORKER_CRASHED
    assert outcome.attempts == FAST_RETRY.max_retries + 1


def test_serial_pool_reports_depth_including_the_retry_backlog():
    jobs = [(i, _job(chaos=_crashy_plan())) for i in range(3)]
    depths = []
    outcomes = list(run_jobs(iter(jobs), workers=1, retry=FAST_RETRY,
                             on_depth=depths.append))
    assert all(outcome.error == "" for _, outcome in outcomes)
    # While later jobs run their first attempt, earlier crashed jobs
    # sit in the retry backlog: the depth must see them.
    assert max(depths) >= 2


def test_serial_pool_enforces_deadlines_post_hoc():
    jobs = [(0, _job())]
    [(_, outcome)] = list(run_jobs(
        iter(jobs), workers=1, job_timeout=1e-9,
        retry=RetryPolicy(max_retries=0),
    ))
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_TIMEOUT


def test_timeout_consumes_a_shrunken_retry_budget():
    # Budget of 3 units: a crash costs 1 (3 retries possible), but a
    # timeout costs 2 — the job gets at most one more attempt.
    policy = RetryPolicy(max_retries=3, backoff_base=0.001,
                         timeout_attempt_cost=2)
    jobs = [(0, _job())]
    [(_, outcome)] = list(run_jobs(iter(jobs), workers=1,
                                   job_timeout=1e-9, retry=policy))
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_TIMEOUT
    # 2 units per attempt: attempts 0 and 2 ran, then 4 > 3 stopped it.
    assert outcome.attempts == 3


def test_compile_errors_are_permanent_not_retried():
    bad = job_for_kernel(KERNEL, VectorizerConfig.lslp(),
                         skylake_like())
    bad = replace(bad, source="int kernel(", name="broken")
    depths = []
    [(_, outcome)] = list(run_jobs(iter([(0, bad)]), workers=1,
                                   retry=FAST_RETRY,
                                   on_depth=depths.append))
    assert outcome.error_info is not None
    assert outcome.error_info.kind == ERROR_COMPILE
    assert outcome.attempts == 1
    assert outcome.error_info.traceback != ""


# ---------------------------------------------------------------------------
# Service rounds: ladder + breaker integration (monkeypatched runner)
# ---------------------------------------------------------------------------


def _flaky_runner(monkeypatch, fail_when, kind=ERROR_WORKER_CRASHED,
                  worker_seconds=0.0):
    """Replace the pool's job runner: failures of ``kind`` (a simulated
    worker crash by default, taking ``worker_seconds``) are decided by
    ``fail_when(job)``; successes run the real compile."""
    import repro.service.pool as pool_module

    calls = []

    def runner(job, capture=None):
        calls.append(job)
        if fail_when(job):
            error = JobError(kind=kind,
                             message=f"simulated {kind}",
                             job_name=job.name,
                             config_name=job.config.name,
                             attempt=job.attempt)
            return JobOutcome(entry=None, error=error.render(),
                              error_info=error,
                              worker_seconds=worker_seconds)
        return execute_job(job, capture)

    monkeypatch.setattr(pool_module, "execute_job", runner)
    return calls


def _resilience(**overrides):
    overrides.setdefault("retry", FAST_RETRY)
    return ResiliencePolicy(**overrides)


def test_ladder_degrades_to_scalar_when_vectorized_compiles_crash(
        monkeypatch):
    _flaky_runner(monkeypatch, lambda job: job.config.enabled)
    service = CompilationService(
        cache=CompileCache(), jobs=1,
        resilience=_resilience(breaker=BreakerPolicy(0)),
    )
    batch = service.compile_batch([_job()])
    [result] = batch.results
    assert result.ok
    assert result.rung == "scalar"
    assert result.degraded
    categories = [r.category for r in result.remarks]
    assert "resilience" in categories
    assert batch.stats.degrade_reduced == 1
    assert batch.stats.degrade_scalar == 1
    assert batch.stats.retries > 0
    # Degraded artifacts are never cached.
    assert batch.stats.stores == 0
    warm = service.compile_batch([_job()])
    assert warm.stats.misses == 1


def test_ladder_bottoming_out_is_a_structured_refusal(monkeypatch):
    _flaky_runner(monkeypatch, lambda job: True)
    service = CompilationService(
        cache=None, jobs=1,
        resilience=_resilience(breaker=BreakerPolicy(0)),
    )
    batch = service.compile_batch([_job()])
    [result] = batch.results
    assert not result.ok
    assert "refused" in result.error
    assert result.error_info is not None
    assert result.error_info.kind == "refused"
    assert result.rung == "refuse"
    assert batch.stats.refused == 1


def test_breaker_trips_across_batches_and_sheds_straight_down(
        monkeypatch):
    calls = _flaky_runner(monkeypatch, lambda job: job.config.enabled)
    service = CompilationService(
        cache=None, jobs=1,
        resilience=_resilience(
            retry=RetryPolicy(max_retries=0, backoff_base=0.001),
            breaker=BreakerPolicy(failure_threshold=2, probe_after=5),
        ),
    )
    first = service.compile_batch([_job() for _ in range(3)])
    assert first.stats.breaker_opened >= 1
    assert service.breaker.state("LSLP") == BREAKER_OPEN
    assert first.breaker_states["LSLP"]["state"] == BREAKER_OPEN

    calls.clear()
    second = service.compile_batch([_job() for _ in range(2)])
    # Both jobs shed straight to a lower rung: no full-fidelity
    # dispatch ran for them.
    assert second.stats.breaker_shed == 2
    assert all(not job.config.enabled or job.config.budget is not None
               for job in calls)
    assert all(r.ok and r.rung != "full" for r in second.results)


def test_breaker_probe_success_closes_the_shard(monkeypatch):
    healthy = {"flag": False}
    calls = _flaky_runner(
        monkeypatch,
        lambda job: job.config.enabled and not healthy["flag"])
    service = CompilationService(
        cache=None, jobs=1,
        resilience=_resilience(
            retry=RetryPolicy(max_retries=0, backoff_base=0.001),
            breaker=BreakerPolicy(failure_threshold=1, probe_after=0),
        ),
    )
    service.compile_batch([_job()])
    assert service.breaker.state("LSLP") == BREAKER_OPEN
    healthy["flag"] = True
    probe = service.compile_batch([_job()])
    [result] = probe.results
    assert result.ok and result.rung == "full"
    assert probe.stats.breaker_probes == 1
    assert probe.stats.breaker_closed == 1
    assert service.breaker.state("LSLP") == BREAKER_CLOSED


def test_compile_seconds_count_every_attempt(monkeypatch):
    """Retried and stepped-down attempts are worker time too; the
    finished job still counts once in invocations and latency."""
    calls = _flaky_runner(monkeypatch, lambda job: job.config.enabled,
                          worker_seconds=0.25)
    service = CompilationService(
        cache=None, jobs=1,
        resilience=_resilience(breaker=BreakerPolicy(0)),
    )
    batch = service.compile_batch([_job()])
    [result] = batch.results
    assert result.ok and result.rung == "scalar"
    failed = len(calls) - 1
    assert failed == 2 * (1 + FAST_RETRY.max_retries)
    assert batch.stats.stage_seconds.compile == pytest.approx(
        0.25 * failed + result.worker_seconds)
    assert batch.stats.vectorizer_invocations == 1
    assert batch.stats.job_latency_samples == [result.worker_seconds]


def test_retry_success_is_counted(monkeypatch):
    seen = []
    _flaky_runner(monkeypatch,
                  lambda job: not seen.append(job) and len(seen) == 1)
    service = CompilationService(cache=None, jobs=1,
                                 resilience=_resilience())
    batch = service.compile_batch([_job()])
    [result] = batch.results
    assert result.ok
    assert result.attempts == 2
    assert result.retried
    assert batch.stats.retries == 1
    assert batch.stats.retry_succeeded == 1


# ---------------------------------------------------------------------------
# One ladder: every shed reason takes one step and records it one way
# ---------------------------------------------------------------------------

SHED_CONFIGS = {
    "lslp": VectorizerConfig.lslp(),
    "lslp-exhaustive": replace(VectorizerConfig.lslp(),
                               plan_select="module-exhaustive"),
    "o3": VectorizerConfig.o3(),
}

#: per shed reason, where a vectorizing job and a job with vectorization
#: off end up: (rung, remark categories, counters the step bumps).  A
#: failure kind fails every compile of the submitted configuration; the
#: backend kinds fail every compiled-tier compile.
_TO_REDUCED = ("reduced", ["resilience"], {"degrade_reduced": 1})
_REFUSED = ("refuse", [], {"refused": 1})
_BACKEND = ("full", ["backend"], {"backend_shed": 1})
SHED_TABLE = {
    "admission-budget": (
        ("scalar", ["admission"], {"degraded": 1, "degrade_scalar": 1}),
        ("full", [], {}),
    ),
    "breaker-open": (
        ("reduced", ["resilience"],
         {"breaker_shed": 1, "degrade_reduced": 1}),
        ("refuse", [], {"breaker_shed": 1, "refused": 1}),
    ),
    **{kind: (_TO_REDUCED, _REFUSED) for kind in sorted(RETRYABLE_KINDS)},
    **{kind: (_BACKEND, _BACKEND) for kind in sorted(BACKEND_SHED_KINDS)},
}
SHED_COUNTERS = ("degraded", "breaker_shed", "backend_shed",
                 "degrade_reduced", "degrade_scalar", "refused",
                 "vectorizer_invocations")


def _job_events(session):
    """The job timeline as compact strings: event[:rung][:reason]."""
    return [":".join([event["event"]] + [
        event[key] for key in ("rung", "reason") if key in event])
        for event in session.events if event["type"] == "job"]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("config_key", sorted(SHED_CONFIGS))
@pytest.mark.parametrize("reason", sorted(SHED_TABLE))
def test_every_shed_reason_takes_one_step_down_one_ladder(
        monkeypatch, tmp_path, reason, config_key, backend):
    config = SHED_CONFIGS[config_key]
    job = _job(config, backend=backend)
    backend_kind = reason in BACKEND_SHED_KINDS

    def fail_when(run):
        if backend_kind:
            return run.backend != "interp"
        return reason in RETRYABLE_KINDS and run.config == config

    _flaky_runner(monkeypatch, fail_when, kind=reason)
    session = TelemetrySession(str(tmp_path / "tele"))
    service = CompilationService(
        cache=CompileCache(), jobs=1,
        admission=AdmissionPolicy(
            max_total_seconds=0.0 if reason == "admission-budget"
            else None),
        resilience=_resilience(
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(
                failure_threshold=int(reason == "breaker-open"),
                probe_after=9)),
        telemetry=session,
    )
    if reason == "breaker-open":
        service.breaker.record_failure(config.name)
    try:
        batch = service.compile_batch([job])
    finally:
        session.close()

    vectorizes = config.enabled
    rung, categories, bumped = SHED_TABLE[reason][0 if vectorizes else 1]
    if backend_kind and backend == "interp":
        rung, categories, bumped = "full", [], {}   # nothing failed
    [result] = batch.results
    assert result.rung == rung
    assert result.ok == (rung != "refuse")
    assert result.degraded == (rung in ("reduced", "scalar"))
    assert [r.category for r in result.remarks] == categories
    # service remarks name their own stage as the phase
    assert [r.phase for r in result.remarks] == categories
    at_dispatch = reason in ("admission-budget", "breaker-open")
    ran = not (at_dispatch and rung == "refuse")
    expected = {counter: bumped.get(counter, 0)
                for counter in SHED_COUNTERS}
    expected["vectorizer_invocations"] = int(ran)
    assert {counter: getattr(batch.stats, counter)
            for counter in SHED_COUNTERS} == expected
    stepped = bool(bumped)
    assert batch.stats.stores == (0 if stepped else 1)

    step = (f"refused:refuse:{reason}" if rung == "refuse"
            else f"rung:{rung}:{reason}")
    if not stepped:
        events = ["dispatched:full", f"completed:{rung}"]
    elif at_dispatch:
        events = [step] + ([] if rung == "refuse" else
                           [f"dispatched:{rung}", f"completed:{rung}"])
    else:
        events = (["dispatched:full"]
                  + (["timeout"] if reason == ERROR_TIMEOUT else [])
                  + [step]
                  + ([] if rung == "refuse" else
                     [f"dispatched:{rung}", f"completed:{rung}"]))
    assert _job_events(session) == ["queued"] + events


def test_every_finished_job_is_counted_once():
    """A ladder refusal ran, so it counts in the invocations, the
    compile seconds and the latency samples like any finished job; a
    breaker refusal never ran and counts in none."""
    service = CompilationService(
        cache=None, jobs=1,
        resilience=_resilience(
            retry=RetryPolicy(max_retries=0), job_timeout=1e-9,
            breaker=BreakerPolicy(failure_threshold=1, probe_after=9)),
    )
    timed_out = service.compile_batch([_job()])
    [result] = timed_out.results
    assert result.rung == "refuse"
    stats = timed_out.stats
    assert stats.timeouts == 3          # full, reduced, scalar
    assert stats.vectorizer_invocations == 1
    assert len(stats.job_latency_samples) == 1
    assert stats.stage_seconds.compile > 0.0
    assert stats.worker_utilization > 0.0

    service.breaker.record_failure("O3")
    shed = service.compile_batch([_job(VectorizerConfig.o3())])
    assert shed.results[0].rung == "refuse"
    assert shed.stats.breaker_shed == 1
    assert shed.stats.vectorizer_invocations == 0
    assert shed.stats.job_latency_samples == []
    assert shed.stats.stage_seconds.compile == 0.0


# ---------------------------------------------------------------------------
# Disk-cache corruption fuzz: every corruption is a miss, never a crash
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _entry_bytes() -> tuple[str, bytes]:
    outcome = execute_job(_job())
    assert outcome.error == ""
    return outcome.entry.key, outcome.entry.to_json().encode("utf-8")


@st.composite
def _corruptions(draw):
    _, payload = _entry_bytes()
    mode = draw(st.sampled_from(
        ("truncate", "bitflip", "partial-json", "zero-byte")))
    if mode == "truncate":
        cut = draw(st.integers(min_value=0,
                               max_value=len(payload) - 1))
        return payload[:cut]
    if mode == "bitflip":
        flips = draw(st.lists(
            st.tuples(st.integers(0, len(payload) - 1),
                      st.integers(0, 7)),
            min_size=1, max_size=8))
        data = bytearray(payload)
        for position, bit in flips:
            data[position] ^= 1 << bit
        return bytes(data)
    if mode == "partial-json":
        brace = draw(st.integers(min_value=1, max_value=payload.count(b"}")))
        cut = -1
        for _ in range(brace):
            cut = payload.index(b"}", cut + 1)
        return payload[:cut]
    return b""


@settings(max_examples=30, deadline=None)
@given(corrupted=_corruptions())
def test_any_disk_corruption_degrades_to_a_miss(tmp_path_factory,
                                                corrupted):
    key, payload = _entry_bytes()
    root = tmp_path_factory.mktemp("fuzz")
    disk = DiskCache(root)
    path = disk._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(corrupted)
    got = disk.get(key)
    if corrupted == payload:
        # A no-op bit flip pair can reconstruct the original: a hit is
        # the correct answer there.
        assert got is not None
        return
    assert got is None
    assert disk.misses >= 1
    # And the slot is usable again: the recompile round-trips.
    from repro.service.cache import CacheEntry

    disk.put(key, CacheEntry.from_json(payload.decode("utf-8")))
    assert disk.get(key) is not None


def test_zero_byte_entry_is_a_miss(tmp_path):
    key, payload = _entry_bytes()
    disk = DiskCache(tmp_path)
    path = disk._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"")
    assert disk.get(key) is None
    assert disk.corrupt == 1
