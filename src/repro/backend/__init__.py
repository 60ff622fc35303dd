"""Tiered execution backend: flat generated Python code.

The interpreter (`repro.interp`) stays the slow-but-trusted
reference; this package compiles IR functions to flat Python source
(`emit`), loads and runs it call-compatibly (`runtime`), picks a tier
per run with interpreter fallback (`tiers`), and differentially
validates compiled results against the interpreter (`validate`).
See docs/BACKEND.md.
"""

from .emit import (
    EMIT_VERSION,
    EmittedModule,
    UnsupportedConstruct,
    emit_module,
)
from .runtime import CompiledModule, clear_load_cache, load_compiled
from .tiers import BACKEND_MODES, TierRun, TieredExecutor
from .validate import CrossCheckResult, cross_check, values_equal

__all__ = [
    "BACKEND_MODES",
    "CompiledModule",
    "CrossCheckResult",
    "EMIT_VERSION",
    "EmittedModule",
    "TierRun",
    "TieredExecutor",
    "UnsupportedConstruct",
    "clear_load_cache",
    "cross_check",
    "emit_module",
    "load_compiled",
    "values_equal",
]
