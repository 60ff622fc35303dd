"""Batch health reports: the ``lslp report`` digest and its diff.

:func:`render_digest` turns one structured batch report (the JSON
``lslp batch --report-out`` writes) into a deterministic text or
markdown digest: the cache hit funnel, per-status and backend tier
mixes, the retry/shed/degrade breakdown, breaker states, job latency
percentiles, and the slowest jobs.  Everything derived from wall
clocks (latencies, slowest jobs, batch seconds) is gated behind
``timings`` so that with ``--no-timings`` two identically seeded runs
produce **byte-identical** digests — the determinism contract CI's
telemetry-smoke pins.

:func:`diff_reports` compares two reports and separates *regressions*
(new errors/refusals, lost jobs, a job's status getting worse, a shard
breaker left open) from informational drift (latency movement, hit
rate changes).  ``lslp report --diff OLD NEW`` exits non-zero only on
regressions, so a report diffed against itself is always clean.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

#: how bad each per-job status is, for regression detection; higher is
#: worse, and any ``cached[*]`` tier maps to "cached"
STATUS_SEVERITY = {
    "cached": 0,
    "compiled": 0,
    "degraded": 1,
    "error": 2,
    "refused": 2,
}

#: report document schema this module understands (see
#: ``repro.cli._batch_report_document``)
REPORT_SCHEMA = 2


def _status_class(status: str) -> str:
    return "cached" if status.startswith("cached") else status


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def load_report(path: str) -> dict[str, Any]:
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "jobs" not in document:
        raise ValueError(f"{path} is not a batch report document")
    return document


def load_metrics(path: str) -> Optional[dict[str, Any]]:
    """The merged ``metrics.json`` snapshot from a telemetry dir, if
    present and readable."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


# ---------------------------------------------------------------------------
# Digest rendering
# ---------------------------------------------------------------------------


def _funnel(stats: dict[str, Any]) -> list[str]:
    hits = stats.get("memory_hits", 0) + stats.get("disk_hits", 0)
    looked_up = hits + stats.get("misses", 0)
    rate = (100.0 * hits / looked_up) if looked_up else 0.0
    return [
        f"lookups {looked_up} -> memory hits "
        f"{stats.get('memory_hits', 0)} -> disk hits "
        f"{stats.get('disk_hits', 0)} -> misses "
        f"{stats.get('misses', 0)} -> stores {stats.get('stores', 0)}",
        f"hit rate {rate:.1f}%",
    ]


def _mix(jobs: list[dict[str, Any]], key, label: str) -> list[str]:
    counts: dict[str, int] = {}
    for job in jobs:
        value = key(job) or "(none)"
        counts[value] = counts.get(value, 0) + 1
    return [f"{label} {name}: {counts[name]}"
            for name in sorted(counts)]


def _resilience(stats: dict[str, Any]) -> list[str]:
    return [
        f"retries {stats.get('retries', 0)} "
        f"(recovered {stats.get('retry_succeeded', 0)}), "
        f"timeouts {stats.get('timeouts', 0)}, "
        f"pool rebuilds {stats.get('pool_rebuilds', 0)}",
        f"ladder: reduced {stats.get('degrade_reduced', 0)}, "
        f"scalar {stats.get('degrade_scalar', 0)}, "
        f"refused {stats.get('refused', 0)}",
        f"breaker: opened {stats.get('breaker_opened', 0)}, "
        f"closed {stats.get('breaker_closed', 0)}, "
        f"probes {stats.get('breaker_probes', 0)}, "
        f"shed {stats.get('breaker_shed', 0)}",
        f"backend shed to interp: {stats.get('backend_shed', 0)}",
    ]


def render_digest(document: dict[str, Any],
                  metrics: Optional[dict[str, Any]] = None,
                  fmt: str = "text",
                  top: int = 5,
                  timings: bool = True) -> str:
    """The batch health digest; see the module docstring for the
    determinism contract of ``timings=False``."""
    jobs = document.get("jobs", [])
    stats = document.get("stats", {})
    md = fmt == "markdown"

    def section(title: str) -> str:
        return f"## {title}" if md else f"== {title} =="

    def bullet(line: str) -> str:
        return f"- {line}" if md else f"  {line}"

    lines: list[str] = []
    lines.append("# batch health report" if md
                 else "=== batch health report ===")
    lines.append(bullet(
        f"jobs: {document.get('submitted', len(jobs))} submitted, "
        f"{document.get('completed', len(jobs))} completed, "
        f"{document.get('lost_jobs', 0)} lost"
    ))
    lines.append(bullet(
        f"outcome: {'ok' if document.get('ok') else 'NOT ok'} with "
        f"{stats.get('workers', 1)} worker(s)"
    ))
    if timings:
        lines.append(bullet(
            f"batch wall: {stats.get('batch_seconds', 0.0):.3f}s"
        ))

    lines.append(section("cache hit funnel"))
    lines.extend(bullet(line) for line in _funnel(stats))

    lines.append(section("status breakdown"))
    lines.extend(bullet(line) for line in _mix(
        jobs, lambda j: _status_class(j.get("status", "")), "status"))

    lines.append(section("backend tier mix"))
    lines.extend(bullet(line) for line in _mix(
        jobs,
        lambda j: (f"{j.get('backend', 'interp')}->"
                   f"{j.get('entry_backend') or '-'}"),
        "requested->served"))

    lines.append(section("retry / shed / degrade"))
    lines.extend(bullet(line) for line in _resilience(stats))

    breaker = document.get("breaker", {})
    if breaker:
        lines.append(section("breaker shards"))
        for shard in sorted(breaker):
            state = breaker[shard]
            lines.append(bullet(
                f"{shard}: {state.get('state', 'closed')} "
                f"(consecutive failures "
                f"{state.get('consecutive_failures', 0)}, shed "
                f"{state.get('shed_total', 0)})"
            ))

    if timings:
        samples = [float(s) for s in
                   stats.get("job_latency_samples", [])]
        waits = [float(s) for s in
                 stats.get("queue_wait_samples", [])]
        lines.append(section("latency"))
        if samples:
            lines.append(bullet(
                f"job seconds p50 {percentile(samples, 0.50):.4f}, "
                f"p95 {percentile(samples, 0.95):.4f}, "
                f"p99 {percentile(samples, 0.99):.4f} "
                f"({len(samples)} executed)"
            ))
        else:
            lines.append(bullet("no jobs executed (fully warm batch)"))
        if waits:
            lines.append(bullet(
                f"queue wait p50 {percentile(waits, 0.50):.4f}s, "
                f"p95 {percentile(waits, 0.95):.4f}s"
            ))

        slowest = sorted(
            (job for job in jobs if job.get("seconds")),
            key=lambda j: (-float(j["seconds"]), j.get("name", ""),
                           j.get("config", "")),
        )[:max(0, top)]
        lines.append(section(f"slowest jobs (top {top})"))
        if slowest:
            for job in slowest:
                lines.append(bullet(
                    f"{job.get('name')} [{job.get('config')}]: "
                    f"{float(job['seconds']):.4f}s "
                    f"({job.get('status')}, attempts "
                    f"{job.get('attempts', 1)}, rung "
                    f"{job.get('rung', 'full')})"
                ))
        else:
            lines.append(bullet("none (every job was a cache hit)"))

    if metrics:
        interesting = sorted(
            name for name in metrics
            if name.startswith(("service.", "cache.", "backend.",
                                "plan."))
            and not isinstance(metrics[name], dict)
        )
        if interesting:
            lines.append(section("merged metrics (telemetry)"))
            for name in interesting:
                lines.append(bullet(f"{name}: {metrics[name]}"))

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Regression diff
# ---------------------------------------------------------------------------


def _job_key(job: dict[str, Any]) -> tuple[str, str]:
    return (job.get("name", ""), job.get("config", ""))


def diff_reports(old: dict[str, Any], new: dict[str, Any]
                 ) -> tuple[list[str], list[str]]:
    """Compare two report documents.

    Returns ``(regressions, notes)``: regressions make ``lslp report
    --diff`` exit non-zero, notes are informational drift.  A report
    diffed against itself yields ``([], [])``.
    """
    regressions: list[str] = []
    notes: list[str] = []
    old_stats, new_stats = old.get("stats", {}), new.get("stats", {})

    for field, label in (("errors", "errored jobs"),
                         ("refused", "refused jobs")):
        before = old_stats.get(field, 0)
        after = new_stats.get(field, 0)
        if after > before:
            regressions.append(
                f"{label} rose {before} -> {after}"
            )
        elif after < before:
            notes.append(f"{label} fell {before} -> {after}")

    if new.get("lost_jobs", 0) > old.get("lost_jobs", 0):
        regressions.append(
            f"lost jobs rose {old.get('lost_jobs', 0)} -> "
            f"{new.get('lost_jobs', 0)}"
        )

    old_jobs = {_job_key(j): j for j in old.get("jobs", [])}
    new_jobs = {_job_key(j): j for j in new.get("jobs", [])}
    for key in sorted(old_jobs.keys() & new_jobs.keys()):
        before = _status_class(old_jobs[key].get("status", ""))
        after = _status_class(new_jobs[key].get("status", ""))
        if before == after:
            continue
        name = f"{key[0]} [{key[1]}]"
        if (STATUS_SEVERITY.get(after, 0)
                > STATUS_SEVERITY.get(before, 0)):
            regressions.append(
                f"{name}: status worsened {before} -> {after}"
            )
        else:
            notes.append(f"{name}: status changed {before} -> {after}")
        old_sha = old_jobs[key].get("ir_sha256", "")
        new_sha = new_jobs[key].get("ir_sha256", "")
        if old_sha and new_sha and old_sha != new_sha:
            notes.append(f"{name}: artifact IR changed")
    for key in sorted(new_jobs.keys() - old_jobs.keys()):
        notes.append(f"{key[0]} [{key[1]}]: new job")
    for key in sorted(old_jobs.keys() - new_jobs.keys()):
        notes.append(f"{key[0]} [{key[1]}]: job disappeared")

    for shard in sorted(new.get("breaker", {})):
        state = new["breaker"][shard].get("state", "closed")
        was = (old.get("breaker", {}).get(shard, {})
               .get("state", "closed"))
        if state == "open" and was != "open":
            regressions.append(
                f"breaker for shard {shard!r} is now open"
            )

    # Latency drift is informational only: wall clocks move between
    # runs, and flagging them would make a self-diff unstable.
    old_lat = [float(s) for s in
               old_stats.get("job_latency_samples", [])]
    new_lat = [float(s) for s in
               new_stats.get("job_latency_samples", [])]
    if old_lat and new_lat:
        before = percentile(old_lat, 0.95)
        after = percentile(new_lat, 0.95)
        if before > 0 and abs(after - before) / before > 0.25:
            notes.append(
                f"job p95 moved {before:.4f}s -> {after:.4f}s"
            )

    return regressions, notes


def render_diff(regressions: list[str], notes: list[str]) -> str:
    lines = []
    if regressions:
        lines.append(f"{len(regressions)} regression(s):")
        lines.extend(f"  REGRESSION: {line}" for line in regressions)
    else:
        lines.append("0 regressions")
    for line in notes:
        lines.append(f"  note: {line}")
    return "\n".join(lines) + "\n"


__all__ = [
    "REPORT_SCHEMA",
    "STATUS_SEVERITY",
    "diff_reports",
    "load_metrics",
    "load_report",
    "percentile",
    "render_diff",
    "render_digest",
]
