"""Compilation pipelines: "O3" and the vectorizing configurations.

``compile_module`` mirrors the paper's experimental setup (§5.1): every
configuration runs the same scalar passes (the "O3" stand-in); the
vectorizing configurations additionally run the (L)SLP pass followed by a
cleanup DCE that removes the scalar address arithmetic the vectorizer
leaves dead.  ``compile_function`` is the same loop over one function.

It is also the one guarded compile loop: pass ``guard="guarded"`` (or a
:class:`~repro.robustness.GuardPolicy`) for per-pass snapshot/rollback,
``oracle=``/``oracles=`` a :class:`~repro.robustness.DifferentialOracle`
for scalar-vs-vectorized execution checking, and ``faults=`` a
:class:`~repro.robustness.FaultInjector` to instrument the pipeline for
recovery testing.  Without those arguments the behaviour is exactly the
historical fail-fast one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..ir.function import Function, Module
from ..obs.tracing import span
from ..robustness.budget import ModuleMeter
from ..robustness.diagnostics import DiagnosticEngine, Remark
from ..robustness.faults import FaultInjector
from ..robustness.guard import DifferentialOracle, GuardPolicy, PassGuard
from ..slp.vectorizer import (
    ModuleVectorizationDriver,
    VectorizationReport,
    VectorizerConfig,
)
from .constfold import run_constfold
from .cse import run_cse
from .dce import run_dce
from .ifconvert import run_ifconvert
from .inline import run_inline
from .instcombine import run_instcombine
from .passmanager import PassManager, PipelineResult
from .simplifycfg import run_simplifycfg
from .unroll import run_unroll

#: accepted values for the ``guard`` argument
GuardSpec = Union[None, str, GuardPolicy]


@dataclass
class CompileResult:
    """Outcome of compiling one function under one configuration."""

    function: Function
    config: VectorizerConfig
    timing: PipelineResult
    report: VectorizationReport = field(
        default_factory=lambda: VectorizationReport("", "")
    )
    #: the function's remarks in emission order (rollback, budget,
    #: miscompile, plan and decline remarks): its compile context's list
    remarks: list[Remark] = field(default_factory=list)
    #: names of passes whose effects were rolled back ("oracle" marks a
    #: differential-execution rollback to the scalar reference)
    rolled_back: list[str] = field(default_factory=list)

    @property
    def compile_seconds(self) -> float:
        return self.timing.total_seconds

    @property
    def static_cost(self) -> int:
        return self.report.total_cost

    @property
    def fell_back_to_scalar(self) -> bool:
        """True when vectorization was undone (slp rollback or oracle)."""
        return "slp" in self.rolled_back or "oracle" in self.rolled_back


class _VectorizePass:
    """Adapter so the SLP driver can sit in a PassManager and still
    surface its report: the "slp" pass applies a function's share of
    the driver's plans."""

    def __init__(self, driver: ModuleVectorizationDriver):
        self.driver = driver
        self.report: Optional[VectorizationReport] = None

    def __call__(self, func: Function) -> bool:
        report = self.driver.apply_function(func)
        if self.report is None:
            self.report = report
        else:
            self.report.merge(report)
        return report.num_vectorized > 0


def scalar_pipeline(verify_each: bool = False, guard=None,
                    ifconvert: str = "off",
                    target: Optional[TargetCostModel] = None,
                    unroll_max_trip: Optional[int] = None,
                    loop_vectorize: bool = False) -> PassManager:
    """The scalar "O3" passes every configuration runs.

    Loop unrolling runs here (not in the vectorizing add-on) so that the
    O3 baseline and the vectorizing configurations see the *same*
    straight-line code, exactly like the paper's setup where SLP runs
    after the loop transformations (§2.1).  ``unroll_max_trip`` overrides
    the full-unroll cap; ``loop_vectorize`` additionally partially
    unrolls the loops full unrolling refuses (symbolic bounds, trips
    beyond the cap) so the SLP pass can pack across iterations, with the
    original loop kept as a scalar epilogue.  Decline remarks go to the
    function's compile context.

    ``ifconvert`` ("on"/"cost") sequences :func:`repro.opt.ifconvert.
    run_ifconvert` after the CFG is cleaned up and before the post-unroll
    scalar cleanups, so flattened arms get constant-folded/CSE'd exactly
    like code that was straight-line from the start; a second simplifycfg
    then merges the emptied merge blocks back in.  The default "off"
    reproduces the historical pass sequence exactly.
    """
    target = target if target is not None else skylake_like()

    def run_unroll_pass(func: Function) -> bool:
        return run_unroll(func, max_trip_count=unroll_max_trip,
                          loop_vectorize=loop_vectorize, target=target)

    manager = (
        PassManager(verify_each=verify_each, guard=guard)
        .add("inline", run_inline)
        .add("constfold", run_constfold)
        .add("instcombine", run_instcombine)
        .add("cse", run_cse)
        .add("dce", run_dce)
        .add("unroll", run_unroll_pass)
        .add("simplifycfg", run_simplifycfg)
    )
    if ifconvert != "off":
        def run_ifconvert_pass(func: Function) -> bool:
            return run_ifconvert(func, mode=ifconvert, target=target)

        manager.add("ifconvert", run_ifconvert_pass)
        manager.add("simplifycfg-post-ifconvert", run_simplifycfg)
    return (
        manager
        .add("constfold-post-unroll", run_constfold)
        .add("instcombine-post-unroll", run_instcombine)
        .add("cse-post-unroll", run_cse)
        .add("dce-post-unroll", run_dce)
    )


def build_pipeline(config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   verify_each: bool = False,
                   guard=None,
                   faults: Optional[FaultInjector] = None,
                   module_meter: Optional[ModuleMeter] = None,
                   ) -> tuple[PassManager, _VectorizePass | None]:
    """A one-manager pipeline for ``config``; also returns the
    report-capturing vectorizer pass (None for O3)."""
    target = target if target is not None else skylake_like()
    if faults is not None:
        target = faults.perturb_cost_model(target)
    manager = _scalar_passes(config, target, verify_each, guard)
    vectorize = None
    if config.enabled:
        driver = ModuleVectorizationDriver(config, target, module_meter)
        vectorize = _vector_passes(manager, driver)
    if faults is not None:
        faults.instrument(manager)
    return manager, vectorize


def _scalar_passes(config: VectorizerConfig, target: TargetCostModel,
                   verify_each: bool, guard) -> PassManager:
    return scalar_pipeline(verify_each=verify_each, guard=guard,
                           ifconvert=config.ifconvert, target=target,
                           unroll_max_trip=config.unroll_max_trip,
                           loop_vectorize=config.loop_vectorize)


def _vector_passes(manager: PassManager,
                   driver: ModuleVectorizationDriver) -> _VectorizePass:
    vectorize = _VectorizePass(driver)
    manager.add("slp", vectorize)
    manager.add("dce-post", run_dce)
    return vectorize


def _resolve_guard(guard: GuardSpec,
                   oracle: Optional[DifferentialOracle]
                   ) -> Optional[GuardPolicy]:
    """Normalize the ``guard``/``oracle`` arguments to one policy."""
    if isinstance(guard, GuardPolicy):
        policy: Optional[GuardPolicy] = guard
    elif guard is None:
        policy = None
    elif guard == "off":
        return None
    elif guard in ("guarded", "strict"):
        policy = GuardPolicy(mode=guard)
    else:
        raise ValueError(
            f"unknown guard {guard!r}; use 'off', 'guarded', 'strict' "
            "or a GuardPolicy"
        )
    if oracle is not None:
        if policy is None:
            policy = GuardPolicy()
        if policy.oracle is None:
            policy = replace(policy, oracle=oracle)
    return policy


def compile_function(func: Function, config: VectorizerConfig,
                     target: Optional[TargetCostModel] = None,
                     verify_each: bool = False,
                     guard: GuardSpec = None,
                     oracle: Optional[DifferentialOracle] = None,
                     faults: Optional[FaultInjector] = None,
                     module_meter: Optional[ModuleMeter] = None
                     ) -> CompileResult:
    """Run the full pipeline for ``config`` over ``func`` in place."""
    return _compile(
        [func], config, target, verify_each, guard, faults, module_meter,
        oracles=(lambda _: oracle) if oracle is not None else None,
    )[0]


def compile_module(module: Module, config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   guard: GuardSpec = None,
                   faults: Optional[FaultInjector] = None,
                   module_meter: Optional[ModuleMeter] = None,
                   oracles: Optional[
                       Callable[[Function], Optional[DifferentialOracle]]
                   ] = None,
                   verify_each: bool = False,
                   ) -> list[CompileResult]:
    """Compile every function of ``module`` under ``config``.

    All functions share one module-scope budget meter when the config's
    budget carries module caps — the whole-compile budget, and the
    service's per-job admission unit.  ``oracles`` optionally maps each
    function to its differential oracle."""
    return _compile(list(module.functions.values()), config, target,
                    verify_each, guard, faults, module_meter, oracles)


def _compile(funcs: list[Function], config: VectorizerConfig,
             target: Optional[TargetCostModel], verify_each: bool,
             guard: GuardSpec, faults: Optional[FaultInjector],
             module_meter: Optional[ModuleMeter],
             oracles: Optional[
                 Callable[[Function], Optional[DifferentialOracle]]
             ]) -> list[CompileResult]:
    """The one guarded compile loop, in one order for every mode.

    Each function first runs the scalar "O3" passes under its own
    :class:`PassGuard` and is planned right after them, so a caller
    inlines its callees' scalar bodies, as the paper's pipeline does
    before SLP runs (§2.1).  Then each function, in source order, runs
    ``slp`` and ``dce-post`` under the same guard, and its oracle; the
    first ``slp`` runs the one selection (none under ``legacy``), which
    spends the shared ``max_select_subsets`` budget where projected
    savings are largest.  The oracle's "pre-slp" reference is captured
    when ``slp`` starts, after scalar optimization but before any vector
    code exists.

    Each function has one compile context, open for all of that and
    handed to its guard; its remarks are ``CompileResult.remarks``.
    """
    target = target if target is not None else skylake_like()
    if faults is not None:
        target = faults.perturb_cost_model(target)
    driver = (ModuleVectorizationDriver(config, target, module_meter)
              if config.enabled else None)
    staged = []
    for func in funcs:
        context = DiagnosticEngine(func.name, config.name)
        policy = _resolve_guard(
            guard, oracles(func) if oracles is not None else None
        )
        pass_guard = (PassGuard(policy, context) if policy is not None
                      else None)
        manager = _scalar_passes(config, target, verify_each, pass_guard)
        if faults is not None:
            faults.instrument(manager)
        with context.open():
            with span("compile.scalar", function=func.name,
                      config=config.name):
                timing = manager.run_function(func)
            if driver is not None:
                driver.plan_function(func)
        staged.append((func, timing, pass_guard, context))
    return [_finish(stage, config, driver, faults, verify_each)
            for stage in staged]


def _finish(stage, config: VectorizerConfig,
            driver: Optional[ModuleVectorizationDriver],
            faults: Optional[FaultInjector],
            verify_each: bool) -> CompileResult:
    """``slp`` and ``dce-post`` under the function's guard, then its
    oracle, all in the function's compile context."""
    func, timing, pass_guard, context = stage
    result = CompileResult(
        func, config, timing,
        report=VectorizationReport(func.name, config.name),
        remarks=context.remarks,
    )
    with context.open(), span("compile.function", function=func.name,
                              config=config.name):
        if driver is not None:
            manager = PassManager(verify_each=verify_each, guard=pass_guard)
            vectorize = _vector_passes(manager, driver)
            if faults is not None:
                faults.instrument(manager)
            manager.run_function(func, result=timing)
            if vectorize.report is not None:
                result.report = vectorize.report
        if pass_guard is not None:
            try:
                if pass_guard.policy.oracle is not None:
                    with span("oracle.verify", function=func.name):
                        pass_guard.run_oracle(func)
            finally:
                pass_guard.finish()
            result.rolled_back = pass_guard.rolled_back
    return result


__all__ = [
    "build_pipeline",
    "compile_function",
    "compile_module",
    "CompileResult",
    "GuardSpec",
    "scalar_pipeline",
]
