"""Tier policy: choose interpreter or compiled execution per run.

Three backends:

``interp``
    Always the tree-walking interpreter (trusted reference).

``compiled``
    Always the generated-code tier; an unsupported construct is an
    error (:class:`repro.backend.emit.UnsupportedConstruct`).

``auto``
    Compiled when possible, silently (but observably — a structured
    remark and a ``backend.fallbacks`` metric) falling back to the
    interpreter per function and per run.  Runs that request
    per-instruction hooks (``on_retire``/``profile``) always take the
    interpreter, because flattened code cannot honor them.

The executor emits once per module and reuses the loaded namespace
across runs, so a hot kernel pays emit+compile exactly once (and zero
times when the generated source arrives from the service cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..interp.interpreter import (
    DEFAULT_STEP_LIMIT,
    ExecutionResult,
    Interpreter,
)
from ..interp.memory import MemoryImage
from ..ir.function import Module
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..obs.tracing import span
from .emit import UnsupportedConstruct, emit_module
from .runtime import CompiledModule, load_compiled

BACKEND_MODES = ("interp", "compiled", "auto")


@dataclass(slots=True)
class TierRun:
    """One executed run plus which tier actually served it."""

    result: ExecutionResult
    tier: str                     #: "interp" | "compiled"
    fallback: bool = False        #: auto demoted this run to interp
    fallback_construct: str = ""  #: UnsupportedConstruct tag, if any
    fallback_detail: str = ""


class TieredExecutor:
    """Run functions of one module through the selected backend.

    ``source`` short-circuits emission with pre-generated source (the
    warm-cache path); otherwise the module is emitted on first use.
    """

    def __init__(self, module: Module, memory: MemoryImage,
                 target: Optional[TargetCostModel] = None,
                 backend: str = "auto",
                 source: Optional[str] = None):
        if backend not in BACKEND_MODES:
            raise ValueError(f"unknown backend {backend!r}")
        self.module = module
        self.memory = memory
        self.target = target or TargetCostModel(skylake_like())
        self.backend = backend
        self._interpreter = Interpreter(self.memory, self.target)
        self._compiled: Optional[CompiledModule] = None
        self._emitted_source: Optional[str] = source
        self._load_error: Optional[Exception] = None
        #: per-function bound runners (buffers resolved once); safe
        #: because MemoryImage mutates buffer lists in place
        self._bound: dict = {}

    # ---- compiled-module management ------------------------------------

    @property
    def compiled(self) -> Optional[CompiledModule]:
        """The loaded compiled module (emitting/loading on demand)."""
        if self.backend == "interp":
            return None
        if self._compiled is None and self._load_error is None:
            try:
                if self._emitted_source is None:
                    with span("backend.emit", module=self.module.name):
                        emitted = emit_module(self.module, self.target)
                    self._emitted_source = emitted.source
                    obs_metrics.add("backend.emits")
                with span("backend.load"):
                    self._compiled = load_compiled(self._emitted_source)
                obs_metrics.add("backend.loads")
            except Exception as exc:
                self._load_error = exc
                if self.backend == "compiled":
                    raise
        return self._compiled

    @property
    def source(self) -> Optional[str]:
        """The generated source (forcing emission if needed)."""
        _ = self.compiled
        return self._emitted_source

    # ---- execution ------------------------------------------------------

    def _fallback(self, func_name: str, construct: str,
                  detail: str, args, step_limit,
                  on_retire, profile) -> TierRun:
        obs_metrics.add("backend.fallbacks")
        result = self._interpreter.run(
            self.module.get_function(func_name), args,
            step_limit=step_limit, on_retire=on_retire,
            profile=profile,
        )
        return TierRun(result=result, tier="interp", fallback=True,
                       fallback_construct=construct,
                       fallback_detail=detail)

    def run(self, func_name: str, args: Optional[dict] = None,
            step_limit: int = DEFAULT_STEP_LIMIT,
            on_retire=None, profile=None) -> TierRun:
        hooked = on_retire is not None or profile is not None
        if self.backend == "interp":
            result = self._interpreter.run(
                self.module.get_function(func_name), args,
                step_limit=step_limit, on_retire=on_retire,
                profile=profile,
            )
            return TierRun(result=result, tier="interp")

        if hooked:
            if self.backend == "compiled":
                raise UnsupportedConstruct(
                    "exec-hooks",
                    "per-instruction hooks require the interpreter",
                )
            return self._fallback(
                func_name, "exec-hooks",
                "per-instruction hooks require the interpreter",
                args, step_limit, on_retire, profile,
            )

        compiled = self.compiled
        if compiled is None:
            # emission/load failed under auto
            detail = str(self._load_error)
            return self._fallback(func_name, "emit-error", detail,
                                  args, step_limit, None, None)
        if not compiled.supports(func_name):
            reason = compiled.unsupported_reason(func_name) or {
                "construct": "unknown-function",
                "detail": f"@{func_name} not in generated module",
            }
            if self.backend == "compiled":
                raise UnsupportedConstruct(reason["construct"],
                                           reason["detail"])
            return self._fallback(func_name, reason["construct"],
                                  reason["detail"], args, step_limit,
                                  None, None)
        bound = self._bound.get(func_name)
        if bound is None:
            bound = compiled.bind(func_name, self.memory)
            self._bound[func_name] = bound
        # observability is gated up front: a compiled run is a few µs
        # and must not pay span/metric overhead when both are off
        if tracing.active() is None:
            result = bound.run(args, step_limit)
        else:
            with span("backend.exec", function=func_name):
                result = bound.run(args, step_limit)
        if obs_metrics.publishing():
            obs_metrics.add("backend.exec.runs")
            obs_metrics.add("backend.exec.cycles", result.cycles)
            obs_metrics.add("backend.exec.instructions",
                            result.instructions_retired)
        return TierRun(result=result, tier="compiled")


__all__ = ["BACKEND_MODES", "TierRun", "TieredExecutor"]
