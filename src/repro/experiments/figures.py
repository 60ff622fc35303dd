"""One reproduction function per table/figure in the paper's evaluation.

Every function returns a :class:`FigureTable` whose rows are the same
series the paper plots; the benchmarks print them and the tests assert
the qualitative claims (who wins, where, by roughly what factor).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..kernels.branchy import BRANCHY_KERNELS
from ..kernels.catalog import EVALUATION_KERNELS, Kernel
from ..kernels.loopy import LOOPY_KERNELS
from ..kernels.modulewide import MODULE_SELECT_BUDGET, MODULEWIDE_KERNELS
from ..kernels.overlap import OVERLAP_KERNELS
from ..kernels.suites import SUITE_SPECS, SuiteSpec
from ..opt.pipelines import compile_function, compile_module
from ..robustness.budget import Budget
from ..slp.vectorizer import PLAN_SELECT_MODES, VectorizerConfig
from .reporting import FigureTable
from .runner import (
    PAPER_CONFIGS,
    SENSITIVITY_CONFIGS,
    geomean,
    measure_kernel,
    measure_suite,
)

_SPEEDUP_CONFIG_NAMES = ["SLP-NR", "SLP", "LSLP"]


def _kernels(kernels: Optional[Sequence[Kernel]]) -> Sequence[Kernel]:
    return kernels if kernels is not None else EVALUATION_KERNELS


def _suites(suites: Optional[Sequence[SuiteSpec]]) -> Sequence[SuiteSpec]:
    return suites if suites is not None else SUITE_SPECS


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def table2_kernels() -> FigureTable:
    """Table 2: the kernels used for evaluation."""
    table = FigureTable(
        "Table 2", "Kernels used for evaluation",
        ["kernel", "origin", "description"],
    )
    for kernel in EVALUATION_KERNELS:
        table.add_row(
            kernel=kernel.name,
            origin=kernel.origin,
            description=kernel.description,
        )
    return table


# ---------------------------------------------------------------------------
# Figure 9 — kernel speedup over O3
# ---------------------------------------------------------------------------


def fig9_speedup(kernels: Optional[Sequence[Kernel]] = None,
                 target: Optional[TargetCostModel] = None) -> FigureTable:
    """Figure 9: execution speedup of SLP-NR / SLP / LSLP over O3."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Figure 9", "Speedup of LSLP, SLP and SLP-NR over O3 (simulated)",
        ["kernel"] + _SPEEDUP_CONFIG_NAMES,
    )
    per_config: dict[str, list[float]] = {
        name: [] for name in _SPEEDUP_CONFIG_NAMES
    }
    for kernel in _kernels(kernels):
        baseline = measure_kernel(kernel, PAPER_CONFIGS[0], target).cycles
        row = {"kernel": kernel.name}
        for config in PAPER_CONFIGS[1:]:
            cycles = measure_kernel(kernel, config, target).cycles
            speedup = baseline / cycles
            row[config.name] = speedup
            per_config[config.name].append(speedup)
        table.add_row(**row)
    table.add_row(
        kernel="GMean",
        **{name: geomean(vals) for name, vals in per_config.items()},
    )
    table.notes.append(
        "cycles come from the machine-model interpreter, not Skylake; "
        "magnitudes differ from the paper but the ordering should hold"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 10 — static vectorization cost per kernel
# ---------------------------------------------------------------------------


def fig10_static_cost(kernels: Optional[Sequence[Kernel]] = None,
                      target: Optional[TargetCostModel] = None) -> FigureTable:
    """Figure 10: static vectorization cost (more negative = better)."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Figure 10", "Static vectorization cost per kernel",
        ["kernel"] + _SPEEDUP_CONFIG_NAMES,
    )
    sums = {name: 0 for name in _SPEEDUP_CONFIG_NAMES}
    count = 0
    for kernel in _kernels(kernels):
        row = {"kernel": kernel.name}
        for config in PAPER_CONFIGS[1:]:
            cost = measure_kernel(kernel, config, target).static_cost
            row[config.name] = cost
            sums[config.name] += cost
        count += 1
        table.add_row(**row)
    table.add_row(
        kernel="Mean",
        **{name: total / count for name, total in sums.items()},
    )
    return table


# ---------------------------------------------------------------------------
# Figure 11 — full-benchmark static cost normalized to SLP
# ---------------------------------------------------------------------------


def fig11_suite_cost(suites: Optional[Sequence[SuiteSpec]] = None,
                     target: Optional[TargetCostModel] = None) -> FigureTable:
    """Figure 11: whole-module static cost normalized to SLP (in %,
    lower = better code)."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Figure 11", "Static cost normalized to SLP (%), full benchmarks",
        ["suite"] + _SPEEDUP_CONFIG_NAMES,
    )
    per_config: dict[str, list[float]] = {
        name: [] for name in _SPEEDUP_CONFIG_NAMES
    }
    for spec in _suites(suites):
        slp_cost = measure_suite(
            spec, PAPER_CONFIGS[2], target
        ).module_static_cost
        row = {"suite": spec.name}
        for config in PAPER_CONFIGS[1:]:
            cost = measure_suite(spec, config, target).module_static_cost
            percent = 100.0 * cost / slp_cost
            row[config.name] = percent
            per_config[config.name].append(percent)
        table.add_row(**row)
    table.add_row(
        suite="GMean",
        **{name: geomean(vals) for name, vals in per_config.items()},
    )
    table.notes.append(
        "metric: static issue cost of all compiled code, so 100% = SLP; "
        "the paper plots its TTI cost normalized the same way"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 12 — full-benchmark speedup over O3
# ---------------------------------------------------------------------------


def fig12_suite_speedup(suites: Optional[Sequence[SuiteSpec]] = None,
                        target: Optional[TargetCostModel] = None
                        ) -> FigureTable:
    """Figure 12: whole-suite execution speedup over O3 (dilution)."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Figure 12", "Speedup over O3 for full benchmarks (simulated)",
        ["suite"] + _SPEEDUP_CONFIG_NAMES,
    )
    per_config: dict[str, list[float]] = {
        name: [] for name in _SPEEDUP_CONFIG_NAMES
    }
    for spec in _suites(suites):
        baseline = measure_suite(spec, PAPER_CONFIGS[0], target).cycles
        row = {"suite": spec.name}
        for config in PAPER_CONFIGS[1:]:
            cycles = measure_suite(spec, config, target).cycles
            speedup = baseline / cycles
            row[config.name] = speedup
            per_config[config.name].append(speedup)
        table.add_row(**row)
    table.add_row(
        suite="GMean",
        **{name: geomean(vals) for name, vals in per_config.items()},
    )
    return table


# ---------------------------------------------------------------------------
# Figure 13 — sensitivity to look-ahead depth and multi-node size
# ---------------------------------------------------------------------------


def fig13_sensitivity(kernels: Optional[Sequence[Kernel]] = None,
                      target: Optional[TargetCostModel] = None
                      ) -> FigureTable:
    """Figure 13: speedup breakdown across LA depths and multi-node
    sizes, normalized to full LSLP (1.0 = LSLP)."""
    target = target if target is not None else skylake_like()
    config_names = [c.name for c in SENSITIVITY_CONFIGS]
    table = FigureTable(
        "Figure 13",
        "Speedup breakdown for look-ahead depths and multi-node sizes "
        "(normalized to LSLP)",
        ["kernel"] + config_names,
    )
    per_config: dict[str, list[float]] = {name: [] for name in config_names}
    for kernel in _kernels(kernels):
        lslp_cycles = measure_kernel(
            kernel, SENSITIVITY_CONFIGS[-1], target
        ).cycles
        row = {"kernel": kernel.name}
        for config in SENSITIVITY_CONFIGS:
            cycles = measure_kernel(kernel, config, target).cycles
            relative = lslp_cycles / cycles
            row[config.name] = relative
            per_config[config.name].append(relative)
        table.add_row(**row)
    table.add_row(
        kernel="GMean",
        **{name: geomean(vals) for name, vals in per_config.items()},
    )
    return table


# ---------------------------------------------------------------------------
# Figure 14 — compilation time normalized to O3
# ---------------------------------------------------------------------------


def fig14_compile_time(kernels: Optional[Sequence[Kernel]] = None,
                       target: Optional[TargetCostModel] = None,
                       repeats: int = 5) -> FigureTable:
    """Figure 14: compilation wall time normalized to O3 (LA=8).

    Each kernel is compiled ``repeats`` times per configuration and the
    minimum is kept (the usual way to de-noise wall-clock timings)."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Figure 14", "Compilation time normalized to O3",
        ["kernel"] + _SPEEDUP_CONFIG_NAMES,
    )
    per_config: dict[str, list[float]] = {
        name: [] for name in _SPEEDUP_CONFIG_NAMES
    }
    for kernel in _kernels(kernels):
        baseline = _best_compile_time(kernel, PAPER_CONFIGS[0], target,
                                      repeats)
        row = {"kernel": kernel.name}
        for config in PAPER_CONFIGS[1:]:
            seconds = _best_compile_time(kernel, config, target, repeats)
            ratio = seconds / baseline if baseline > 0 else float("nan")
            row[config.name] = ratio
            per_config[config.name].append(ratio)
        table.add_row(**row)
    table.add_row(
        kernel="GMean",
        **{name: geomean(vals) for name, vals in per_config.items()},
    )
    return table


def _best_compile_time(kernel: Kernel, config: VectorizerConfig,
                       target: TargetCostModel, repeats: int) -> float:
    """End-to-end compile time: front-end (lex/parse/lower) + passes.

    The paper normalizes against a full clang -O3 run, where the
    vectorizer is a small slice of total compile time; counting our
    front-end gives the same framing."""
    import time

    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        _, func = kernel.build()
        result = compile_function(func, config, target)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


# ---------------------------------------------------------------------------
# Ablation — candidate-plan selection on overlapping seeds
# ---------------------------------------------------------------------------


def ablation_plan_select(kernels: Optional[Sequence[Kernel]] = None,
                         target: Optional[TargetCostModel] = None
                         ) -> FigureTable:
    """Plan-selection ablation: greedy first-fit (``legacy``) vs
    savings-driven selection on kernels whose candidate plans overlap.

    The legacy driver commits the first profitable tree per seed group;
    ``module-greedy``/``module-exhaustive`` weigh the eagerly-enumerated
    half-width plans against the full tree and keep whichever set of
    non-conflicting plans projects the lower total cost."""
    target = target if target is not None else skylake_like()
    table = FigureTable(
        "Ablation plan-select",
        "Candidate-plan selection vs greedy first-fit, overlapping seeds",
        ["kernel", "plan-select", "static-cost", "vectorized-trees"],
    )
    for kernel in (kernels if kernels is not None else OVERLAP_KERNELS):
        for mode in PLAN_SELECT_MODES:
            config = replace(VectorizerConfig.lslp(), plan_select=mode)
            _, func = kernel.build()
            result = compile_function(func, config, target)
            trees = ", ".join(
                f"VL{t.vector_length}:{t.cost}"
                for t in result.report.trees if t.vectorized
            ) or "none"
            table.add_row(kernel=kernel.name, **{
                "plan-select": mode,
                "static-cost": result.static_cost,
                "vectorized-trees": trees,
            })
    table.notes.append(
        "legacy reproduces the paper's greedy driver byte-for-byte; the "
        "selection modes only differ where profitable plans overlap"
    )
    return table


def ablation_module_select(kernels: Optional[Sequence[Kernel]] = None,
                           target: Optional[TargetCostModel] = None,
                           select_budget: int = MODULE_SELECT_BUDGET
                           ) -> FigureTable:
    """Module-selection ablation: greedy first-fit (``legacy``) vs
    module-wide selection under one shared plan-selection budget.

    Every mode runs with ``Budget.max_select_subsets=select_budget``
    shared across the whole module.  The legacy driver commits the
    first profitable tree per seed group in every block;
    ``module-greedy`` sorts the pooled candidates by projected savings
    and picks the payoff blocks' half-width plans while the budget
    lasts (goSLP's global packing)."""
    target = target if target is not None else skylake_like()
    budget = Budget(max_select_subsets=select_budget)
    table = FigureTable(
        "Ablation module-select",
        f"First-fit vs module-wide plan selection, "
        f"{select_budget} shared selection-budget units",
        ["kernel", "plan-select", "static-cost", "vectorized-trees"],
    )
    for kernel in (kernels if kernels is not None
                   else MODULEWIDE_KERNELS):
        for mode in PLAN_SELECT_MODES:
            config = replace(VectorizerConfig.lslp(), plan_select=mode,
                             budget=budget)
            module, _ = kernel.build()
            results = compile_module(module, config)
            cost = sum(r.static_cost for r in results)
            vectorized = sum(r.report.num_vectorized for r in results)
            table.add_row(kernel=kernel.name, **{
                "plan-select": mode,
                "static-cost": cost,
                "vectorized-trees": vectorized,
            })
    table.notes.append(
        "one shared max_select_subsets budget per compile; first-fit "
        "vs module-wide: legacy commits the first profitable tree per "
        "seed group, module-* modes spend the budget on the highest "
        "projected savings anywhere in the module"
    )
    return table


# ---------------------------------------------------------------------------
# Ablation — if-conversion on branchy kernels
# ---------------------------------------------------------------------------


def ablation_ifconvert(kernels: Optional[Sequence[Kernel]] = None,
                       target: Optional[TargetCostModel] = None
                       ) -> FigureTable:
    """If-conversion ablation: branchy kernels with and without the
    :mod:`repro.opt.ifconvert` pass.

    Every lane's store hides behind an ``if``, so the per-block seed
    collector finds nothing to pack and plain LSLP serves these kernels
    scalar (zero vectorized trees).  With ``ifconvert=cost`` the
    hammocks/diamonds flatten into select-fed straight-line code before
    SLP runs and the usual 4-wide trees appear."""
    target = target if target is not None else skylake_like()
    configs = [
        VectorizerConfig.o3(),
        VectorizerConfig.lslp(),
        replace(VectorizerConfig.lslp(name="LSLP-ifconvert"),
                ifconvert="cost"),
    ]
    table = FigureTable(
        "Ablation ifconvert",
        "If-conversion on branchy kernels: cycles and vectorized trees",
        ["kernel", "config", "cycles", "static-cost", "vectorized-trees"],
    )
    for kernel in (kernels if kernels is not None else BRANCHY_KERNELS):
        for config in configs:
            result = measure_kernel(kernel, config, target)
            table.add_row(kernel=kernel.name, config=config.name, **{
                "cycles": result.cycles,
                "static-cost": result.static_cost,
                "vectorized-trees": result.trees_vectorized,
            })
    table.notes.append(
        "without if-conversion every guarded store sits in its own "
        "basic block and LSLP finds zero seeds; flattening to selects "
        "restores the 4-wide load/cmp/select/store trees"
    )
    return table


# ---------------------------------------------------------------------------
# Ablation — loop vectorization on loopy kernels
# ---------------------------------------------------------------------------


def ablation_loopvec(kernels: Optional[Sequence[Kernel]] = None,
                     target: Optional[TargetCostModel] = None
                     ) -> FigureTable:
    """Loop-vectorization ablation: loopy kernels scalar (with the
    full-unroll pass declining every loop) versus unroll-and-SLP.

    Every kernel's hot region is a counted loop whose trip count is
    symbolic or above the full-unroll cap, so plain LSLP — whose
    pipeline includes the full-unroll pass — serves it as a scalar
    loop (zero vectorized trees).  ``LSLP-loopvec`` partially unrolls
    every loop by the vector width and packs across the copies
    (:func:`repro.opt.unroll.partial_unroll`)."""
    target = target if target is not None else skylake_like()
    configs = [
        VectorizerConfig.o3(),
        VectorizerConfig.lslp(),
        replace(VectorizerConfig.lslp(name="LSLP-loopvec"),
                loop_vectorize=True),
    ]
    table = FigureTable(
        "Ablation loopvec",
        "Loop vectorization on loopy kernels: cycles and vectorized "
        "trees",
        ["kernel", "config", "cycles", "static-cost", "vectorized-trees"],
    )
    for kernel in (kernels if kernels is not None else LOOPY_KERNELS):
        for config in configs:
            result = measure_kernel(kernel, config, target)
            table.add_row(kernel=kernel.name, config=config.name, **{
                "cycles": result.cycles,
                "static-cost": result.static_cost,
                "vectorized-trees": result.trees_vectorized,
            })
    table.notes.append(
        "symbolic or above-cap trip counts defeat full unrolling, so "
        "plain LSLP finds zero seeds in the loop body; unroll-and-SLP "
        "partially unrolls by the vector width, packs across the "
        "copies, and folds accumulators with a horizontal reduction"
    )
    return table


ALL_FIGURES = {
    "table2": table2_kernels,
    "fig9": fig9_speedup,
    "fig10": fig10_static_cost,
    "fig11": fig11_suite_cost,
    "fig12": fig12_suite_speedup,
    "fig13": fig13_sensitivity,
    "fig14": fig14_compile_time,
    "ablation-plan-select": ablation_plan_select,
    "ablation-module-select": ablation_module_select,
    "ablation-ifconvert": ablation_ifconvert,
    "ablation-loopvec": ablation_loopvec,
}


__all__ = [
    "ablation_ifconvert",
    "ablation_loopvec",
    "ablation_module_select",
    "ablation_plan_select",
    "ALL_FIGURES",
    "fig9_speedup",
    "fig10_static_cost",
    "fig11_suite_cost",
    "fig12_suite_speedup",
    "fig13_sensitivity",
    "fig14_compile_time",
    "table2_kernels",
]
