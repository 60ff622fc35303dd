"""Canonical (de)serialization for compile artifacts.

The cache's disk tier and the batch service's determinism guarantees
both need one canonical byte form for a
:class:`~repro.slp.vectorizer.VectorizationReport` and a remark:
``report_to_json`` sorts keys and uses compact separators, so equality
of compiles is equality of bytes — the property the parallel-pool
determinism tests assert.  :func:`remark_to_dict` is the one remark
schema; the service builds every remark it stores through it.
"""

from __future__ import annotations

import json
from typing import Any

from ..robustness.diagnostics import Remark, Severity
from ..slp.builder import BuildStats
from ..slp.vectorizer import TreeRecord, VectorizationReport


def tree_to_dict(tree: TreeRecord) -> dict[str, Any]:
    # Graph dumps are only serialized for trees that were actually
    # vectorized: rejected trees (gather roots above all) dominate most
    # reports, and their dumps were dead weight in every batch-service
    # artifact.  In-memory records still render lazily on access.
    return {
        "kind": tree.kind,
        "vector_length": tree.vector_length,
        "cost": tree.cost,
        "vectorized": tree.vectorized,
        "schedulable": tree.schedulable,
        "description": tree.description if tree.vectorized else "",
    }


def tree_from_dict(data: dict[str, Any]) -> TreeRecord:
    return TreeRecord(
        kind=data["kind"],
        vector_length=data["vector_length"],
        cost=data["cost"],
        vectorized=data["vectorized"],
        schedulable=data["schedulable"],
        description=data.get("description", ""),
    )


def remark_to_dict(remark: Remark) -> dict[str, Any]:
    return {
        "severity": remark.severity.value,
        "category": remark.category,
        "message": remark.message,
        "function": remark.function,
        "pass_name": remark.pass_name,
        "phase": remark.phase,
        "remediation": remark.remediation,
    }


def remark_from_dict(data: dict[str, Any]) -> Remark:
    return Remark(
        severity=Severity(data["severity"]),
        category=data["category"],
        message=data["message"],
        function=data.get("function", ""),
        pass_name=data.get("pass_name", ""),
        phase=data.get("phase", ""),
        remediation=data.get("remediation", ""),
    )


def stats_to_dict(stats: BuildStats) -> dict[str, int]:
    return {
        "nodes": stats.nodes,
        "multi_nodes": stats.multi_nodes,
        "gathers": stats.gathers,
        "reorders": stats.reorders,
        "lookahead_evals": stats.lookahead_evals,
    }


def stats_from_dict(data: dict[str, int]) -> BuildStats:
    return BuildStats(
        nodes=data.get("nodes", 0),
        multi_nodes=data.get("multi_nodes", 0),
        gathers=data.get("gathers", 0),
        reorders=data.get("reorders", 0),
        lookahead_evals=data.get("lookahead_evals", 0),
    )


def report_to_dict(report: VectorizationReport) -> dict[str, Any]:
    return {
        "function": report.function,
        "config": report.config,
        "trees": [tree_to_dict(t) for t in report.trees],
        "stats": stats_to_dict(report.stats),
    }


def report_from_dict(data: dict[str, Any]) -> VectorizationReport:
    # Older entries also kept a copy of the remarks here; it is ignored.
    return VectorizationReport(
        function=data["function"],
        config=data["config"],
        trees=[tree_from_dict(t) for t in data.get("trees", [])],
        stats=stats_from_dict(data.get("stats", {})),
    )


def report_to_json(report: VectorizationReport) -> str:
    """Canonical byte form: sorted keys, compact separators."""
    return canonical_json(report_to_dict(report))


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


__all__ = [
    "canonical_json",
    "remark_from_dict",
    "remark_to_dict",
    "report_from_dict",
    "report_to_dict",
    "report_to_json",
    "stats_from_dict",
    "stats_to_dict",
    "tree_from_dict",
    "tree_to_dict",
]
