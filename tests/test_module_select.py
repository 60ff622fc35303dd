"""Module-wide plan selection and register-pressure costing.

Four guarantees:

* **Never worse**: ``module-greedy`` never loses to the legacy
  first-fit driver and ``module-exhaustive`` never loses to
  ``module-greedy``; under a shared ``max_select_subsets`` budget the
  module-wide kernels show where global ordering strictly wins, and
  ``433.mult-su2`` shows the subset search strictly beating the greedy
  pass.
* **Determinism**: the module phase produces byte-identical reports,
  IR and plan-dump streams whether the batch runs serially or across
  pool workers.
* **Pressure**: the Sethi–Ullman penalty rejects over-subscribed plans
  on small-register-file targets, the rejection is visible in the plan
  dump as ``reg-pressure``, and the apply-phase sweep never resurrects
  a pressure-rejected plan.
* **Cache keys**: configs differing only in ``plan_select`` or
  ``reg_pressure_weight`` never share a cache entry.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.costmodel.targets import few_registers, skylake_like
from repro.interp import compare_runs
from repro.ir import verify_function
from repro.kernels import (
    ALL_KERNELS,
    MODULE_BUDGET_TWIN,
    MODULE_SELECT_BUDGET,
    MODULEWIDE_KERNELS,
    OVERLAP_KERNELS,
    VSUMSQR_LIB,
)
from repro.obs import metrics, records
from repro.obs.records import ListSink
from repro.opt.pipelines import compile_module
from repro.robustness import Budget
from repro.service import CompilationService, job_for_kernel
from repro.slp import PLAN_SELECT_MODES, VectorizerConfig
from repro.slp.pressure import register_excess
from repro.slp.vectorizer import ModuleVectorizationDriver
from tests.conftest import build_kernel
from tests.test_property_differential import kernels

MODULE_MODES = ("module-greedy", "module-exhaustive")
SELECT_BUDGET = Budget(max_select_subsets=MODULE_SELECT_BUDGET)


def _config(mode, budget=None, weight=0):
    config = replace(VectorizerConfig.lslp(), plan_select=mode)
    if budget is not None:
        config = replace(config, budget=budget)
    if weight:
        config = replace(config, reg_pressure_weight=weight)
    return config


@contextmanager
def _plan_dump():
    """The ``plan.dump`` records streamed inside the block."""
    sink = ListSink(types=("plan.dump",))
    records.set_sink(sink)
    try:
        yield sink.records
    finally:
        records.set_sink(None)


def _compile(kernel, mode, budget=None, target=None, weight=0):
    module, _ = kernel.build()
    results = compile_module(module, _config(mode, budget, weight),
                             target)
    cost = sum(r.static_cost for r in results)
    vectorized = sum(r.report.num_vectorized for r in results)
    return module, cost, vectorized


# ---------------------------------------------------------------------------
# Never worse than first-fit
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(source=kernels())
def test_module_selection_never_worse_property(source):
    """Pooling never loses to first-fit, and the subset search never
    loses to the greedy pass."""
    total = {}
    for mode in PLAN_SELECT_MODES:
        module = build_kernel(source)[0]
        results = compile_module(module, _config(mode))
        total[mode] = sum(r.static_cost for r in results)
    assert total["module-greedy"] <= total["legacy"], source
    assert total["module-exhaustive"] <= total["module-greedy"], source


@pytest.mark.parametrize("kernel", MODULEWIDE_KERNELS,
                         ids=lambda k: k.name)
def test_module_selection_wins_under_shared_budget(kernel):
    """The acceptance bar: one shared selection budget, spent by
    projected savings by the module selector — the module-wide kernels
    are built so the global ordering strictly beats first-fit."""
    _, legacy, _ = _compile(kernel, "legacy", SELECT_BUDGET)
    _, module, _ = _compile(kernel, "module-greedy", SELECT_BUDGET)
    _, exhaustive, _ = _compile(kernel, "module-exhaustive",
                                SELECT_BUDGET)
    assert module < legacy
    assert exhaustive <= module


@pytest.mark.parametrize("base", [VectorizerConfig.slp(),
                                  VectorizerConfig.lslp()],
                         ids=lambda config: config.name)
def test_subset_search_beats_greedy_on_mult_su2(base):
    """The subset search earns its keep on a catalog kernel: the greedy
    pass (like first-fit) takes ``433.mult-su2``'s one VL4 tree at -10,
    the subset search finds its two VL2 halves at -8 each."""
    kernel = ALL_KERNELS["433.mult-su2"]
    reference = build_kernel(kernel.source)
    trees = {}
    for mode in PLAN_SELECT_MODES:
        module, _ = kernel.build()
        results = compile_module(module, replace(base, plan_select=mode))
        trees[mode] = sorted((t.vector_length, t.cost) for r in results
                             for t in r.report.trees if t.vectorized)
        outcome = compare_runs(
            reference, (module, module.get_function(kernel.entry)),
            args=dict(kernel.default_args), seed=7,
        )
        assert outcome.equivalent, (mode, outcome.detail)
    assert trees == {
        "legacy": [(4, -10)],
        "module-greedy": [(4, -10)],
        "module-exhaustive": [(2, -8), (2, -8)],
    }


@pytest.mark.parametrize("base", [VectorizerConfig.slp(),
                                  VectorizerConfig.lslp()],
                         ids=lambda config: config.name)
def test_every_mode_costs_a_module_with_calls_alike(base):
    """Every mode stages every function's scalar passes before any SLP,
    so ``ext.vsumsqr-lib``'s caller inlines the scalar helper body and
    vectorizes it itself: the per-function costs do not depend on the
    mode."""
    costs = {}
    for mode in PLAN_SELECT_MODES:
        module, _ = VSUMSQR_LIB.build()
        results = compile_module(module, replace(base, plan_select=mode))
        costs[mode] = [result.static_cost for result in results]
    assert costs == {mode: [-4, -16] for mode in PLAN_SELECT_MODES}


@pytest.mark.parametrize("kernel", MODULEWIDE_KERNELS,
                         ids=lambda k: k.name)
def test_module_selection_preserves_semantics(kernel):
    reference = build_kernel(kernel.source)
    for mode in MODULE_MODES:
        module, _, _ = _compile(kernel, mode, SELECT_BUDGET)
        for func in module.functions.values():
            verify_function(func)
        outcome = compare_runs(
            reference, (module, module.get_function(kernel.entry)),
            args=dict(kernel.default_args), seed=7,
        )
        assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# Determinism: serial and parallel module phases are byte-identical
# ---------------------------------------------------------------------------


def _module_jobs():
    return [
        job_for_kernel(kernel, _config("module-greedy", SELECT_BUDGET))
        for kernel in MODULEWIDE_KERNELS
    ]


def _batch(jobs):
    with _plan_dump() as plans:
        batch = CompilationService(jobs=jobs).compile_batch(
            _module_jobs()
        )
    return batch, plans


def _fingerprint(run):
    batch, plans = run
    return [
        (r.job.name, r.report_json, r.ir_text, r.static_cost)
        for r in batch.results
    ] + [json.dumps(plans, sort_keys=True)]


def _job_plans(job):
    """The ``plan.dump`` records ``job`` streams compiled on its own."""
    with _plan_dump() as plans:
        CompilationService(jobs=1).compile_job(job)
    return plans


def test_module_phase_serial_parallel_identical():
    serial = _batch(1)
    parallel = _batch(4)
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_batch_plan_dump_reemitted_in_submission_order():
    """Captured plan entries reach the sink after the batch, in
    submission order — so ``--plan-dump`` through the pool is
    byte-identical to a serial run."""
    streams = []
    for jobs in (1, 4):
        batch, sink = _batch(jobs)
        expected = [entry for r in batch.results
                    for entry in _job_plans(r.job)]
        assert sink == expected
        assert sink, "module mode must dump candidate plans"
        streams.append(json.dumps(sink, sort_keys=True))
    assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# Observability: every candidate's verdict is visible
# ---------------------------------------------------------------------------


def test_module_dump_covers_every_candidate_with_verdict():
    kernel = MODULEWIDE_KERNELS[0]
    with _plan_dump() as plans:
        _compile(kernel, "module-greedy", SELECT_BUDGET)
    assert plans
    seen = set()
    for entry in plans:
        assert entry["mode"] == "module-greedy"
        assert entry["outcome"] in ("applied", "rejected")
        assert entry["reason"] is not None
        key = (entry["function"], entry["block"], entry["plan_id"])
        assert key not in seen, f"duplicate verdict for {key}"
        seen.add(key)
    applied = [e for e in plans if e["outcome"] == "applied"]
    assert applied, kernel.name


def test_legacy_plan_dump_names_every_function():
    """Every dump entry names its function, and plan ids are numbered
    module-wide in every mode, so each (function, block, plan_id) key
    is unique."""
    with _plan_dump() as plans:
        _compile(MODULE_BUDGET_TWIN, "legacy")
    keys = [(e["function"], e["block"], e["plan_id"]) for e in plans]
    assert len(keys) == 9
    assert len(set(keys)) == len(keys)
    assert all(function for function, _, _ in keys)


def test_module_select_record_and_metrics():
    sink = ListSink()
    records.set_sink(sink)
    metrics.set_publishing(True)
    try:
        _compile(MODULEWIDE_KERNELS[0], "module-greedy", SELECT_BUDGET)
        snap = metrics.registry().snapshot()
    finally:
        metrics.set_publishing(False)
        records.set_sink(None)
    selects = [r for r in sink.records
               if r["type"] == "module_select"]
    assert len(selects) == 1
    assert selects[0]["mode"] == "module-greedy"
    assert selects[0]["candidates"] >= selects[0]["selected"] > 0
    assert snap["plan.module.functions"] == 2
    assert snap["plan.module.candidates"] > 0
    assert snap["plan.module.selected"] > 0


# ---------------------------------------------------------------------------
# Register pressure
# ---------------------------------------------------------------------------


def test_register_excess_is_clamped():
    assert register_excess(3, 16) == 0
    assert register_excess(3, 3) == 0
    assert register_excess(3, 1) == 2


@pytest.mark.parametrize("mode", MODULE_MODES)
def test_pressure_rejection_on_small_register_file(mode):
    """On a one-register target with a heavy penalty, every plan whose
    estimate exceeds the file is rejected with an explicit
    ``reg-pressure`` verdict and the sweep leaves the block scalar."""
    kernel = OVERLAP_KERNELS[0]
    with _plan_dump() as plans:
        _, cost, vectorized = _compile(kernel, mode,
                                       target=few_registers(),
                                       weight=100)
    assert cost == 0 and vectorized == 0
    reasons = {e["reason"] for e in plans
               if e["outcome"] == "rejected"}
    assert "reg-pressure" in reasons
    for entry in plans:
        assert entry["reg_excess"] == register_excess(
            entry["reg_pressure"], few_registers().desc.vector_registers
        )


def test_pressure_weight_zero_is_pressure_blind():
    kernel = OVERLAP_KERNELS[0]
    _, cost, vectorized = _compile(kernel, "module-greedy",
                                   target=few_registers())
    assert cost < 0 and vectorized > 0


def test_pressure_excess_zero_on_big_register_file():
    with _plan_dump() as plans:
        _compile(OVERLAP_KERNELS[0], "module-greedy",
                 target=skylake_like(), weight=100)
    assert plans
    for entry in plans:
        assert entry["reg_pressure"] >= 1
        assert entry["reg_excess"] == 0
        assert entry["reason"] != "reg-pressure"


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def test_cache_key_covers_selection_knobs():
    kernel = list(ALL_KERNELS.values())[0]
    base = job_for_kernel(kernel, VectorizerConfig.lslp())
    keys = {base.cache_key()}
    for mode in MODULE_MODES:
        job = job_for_kernel(
            kernel, replace(VectorizerConfig.lslp(), plan_select=mode)
        )
        key = job.cache_key()
        assert key not in keys, f"{mode} shares a cache entry"
        keys.add(key)
    weighted = job_for_kernel(
        kernel, replace(VectorizerConfig.lslp(), reg_pressure_weight=2)
    )
    assert weighted.cache_key() not in keys


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_batch_defaults_to_module_greedy():
    """The batch service promotes module-greedy to its default;
    ``lslp compile`` keeps the paper-faithful legacy driver."""
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(
        ["batch", "catalog"]
    ).plan_select == "module-greedy"
    assert parser.parse_args(
        ["compile", "k.c"]
    ).plan_select == "legacy"
    # and legacy stays one flag away for the batch path
    assert parser.parse_args(
        ["batch", "catalog", "--plan-select", "legacy"]
    ).plan_select == "legacy"


@pytest.mark.parametrize("gone", ["greedy-savings", "exhaustive"])
def test_block_scope_modes_are_gone(gone, capsys):
    """Selection has one scope: first-fit, or the whole module."""
    from repro.cli import build_parser

    assert PLAN_SELECT_MODES == ("legacy",) + MODULE_MODES
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compile", "k.c", "--plan-select", gone])
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown plan-select mode"):
        ModuleVectorizationDriver(_config(gone))


def test_cli_batch_module_greedy_plan_dump(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "skew.c").write_text(MODULEWIDE_KERNELS[0].source)
    dump = tmp_path / "plans.jsonl"
    rc = main([
        "batch", str(tmp_path), "--configs", "lslp",
        "--plan-select", "module-greedy",
        "--max-select-subsets", str(MODULE_SELECT_BUDGET),
        "--plan-dump", str(dump), "--cache", "off",
    ])
    capsys.readouterr()
    assert rc == 0
    entries = [json.loads(line)
               for line in dump.read_text().splitlines()]
    assert entries, "batch --plan-dump produced no plans"
    assert {e["mode"] for e in entries} == {"module-greedy"}
    assert {e["function"] for e in entries} == {"decoy", "kernel"}
    assert all("outcome" in e and "reg_pressure" in e
               for e in entries)


def test_cli_compile_accepts_module_mode_and_pressure(tmp_path,
                                                      capsys):
    from repro.cli import main

    path = tmp_path / "k.c"
    path.write_text(OVERLAP_KERNELS[0].source)
    rc = main(["compile", str(path), "--plan-select", "module-greedy",
               "--reg-pressure-weight", "1", "--report"])
    capsys.readouterr()
    assert rc == 0


def test_cli_compile_selects_across_the_module(tmp_path, capsys):
    """``lslp compile`` runs ``compile_module``, so a module-* mode
    spends one selection budget over every function, as service jobs
    do, instead of selecting function by function."""
    from repro.cli import main

    path = tmp_path / "twin.c"
    path.write_text(MODULE_BUDGET_TWIN.source)
    rc = main(["compile", str(path), "--plan-select", "module-greedy",
               "--max-select-subsets", "6", "--report"])
    out = capsys.readouterr().out
    assert rc == 0
    module, _ = MODULE_BUDGET_TWIN.build()
    results = compile_module(
        module, _config("module-greedy", Budget(max_select_subsets=6))
    )
    for result in results:
        assert (f"; @{result.function.name}: static cost "
                f"{result.static_cost}, ") in out


@pytest.mark.parametrize("mode", PLAN_SELECT_MODES)
def test_cli_run_meters_module_caps_in_every_mode(tmp_path, capsys,
                                                   mode):
    """A module look-ahead cap of one eval trips in every mode, so the
    kernel keeps its scalar form and runs in O3's cycles."""
    from repro.cli import main

    path = tmp_path / "boy.c"
    path.write_text(ALL_KERNELS["453.boy-surface"].source)

    def cycles(*flags):
        assert main(["run", str(path), "--arg", "i=0", "--remarks",
                     *flags]) == 0
        out = capsys.readouterr().out
        return int(re.search(r"(\d+) cycles, ", out).group(1)), out

    scalar, _ = cycles("--config", "o3")
    capped, out = cycles("--plan-select", mode,
                         "--max-module-lookahead-evals", "1")
    assert "module-level compile budget exhausted" in out
    assert capped == scalar
