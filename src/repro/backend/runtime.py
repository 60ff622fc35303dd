"""Loading and running generated backend modules.

:func:`load_compiled` compiles a generated source string (from
:func:`repro.backend.emit.emit_module` or the service cache) into a
fresh module namespace, memoized by content hash so a warm service
cache never pays ``compile()`` twice for the same artifact.

:class:`CompiledModule` is call-compatible with
:class:`repro.interp.interpreter.Interpreter`: ``run(func, memory,
args, step_limit)`` returns the same :class:`ExecutionResult` —
return value, simulated cycles, retired-instruction count and opcode
counts — reconstructed exactly from the static per-block accounting
tables baked into the generated source.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from typing import Any, Optional

from ..interp.interpreter import (
    DEFAULT_STEP_LIMIT,
    ExecutionResult,
    InterpreterError,
)
from ..interp.memory import MemoryImage
from .emit import EMIT_VERSION, UnsupportedConstruct

#: memoized compiled namespaces, keyed by source sha256
_LOAD_CACHE_CAP = 128
_load_cache: "OrderedDict[str, dict]" = OrderedDict()


def source_sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def clear_load_cache() -> None:
    _load_cache.clear()


def _load_namespace(source: str, sha: str) -> dict:
    namespace = _load_cache.get(sha)
    if namespace is not None:
        _load_cache.move_to_end(sha)
        return namespace
    code = compile(source, f"<repro.backend {sha[:12]}>", "exec")
    namespace: dict[str, Any] = {}
    exec(code, namespace)
    _load_cache[sha] = namespace
    _load_cache.move_to_end(sha)
    while len(_load_cache) > _LOAD_CACHE_CAP:
        _load_cache.popitem(last=False)
    return namespace


def _normalize_return(kind: tuple, value):
    """Convert a generated function's native return representation
    (tuples) to the interpreter's (scalars / lists)."""
    if value is None or kind[0] in ("i", "f", "v"):
        return value
    if kind[0] == "fv":
        return [float(v) for v in value]
    return [int(v) for v in value]


class BoundFunction:
    """One function bound to one memory image: the per-run hot path.

    Everything resolvable ahead of time (entry callable, argument
    converters, live buffer lists, static accounting) is resolved at
    bind time, so :meth:`run` is a handful of dict operations around
    the generated function call.  Buffer lists are captured by
    reference — :class:`~repro.interp.memory.MemoryImage` only ever
    mutates them in place, never replaces them — so a bound function
    stays valid across ``set_array``/``randomize`` calls.
    """

    __slots__ = ("module", "func_name", "entry", "arg_spec",
                 "passthrough_names", "buffers", "ret_kind",
                 "normalize", "n_blocks", "fast", "_fast_ctl")

    def __init__(self, module: "CompiledModule", func_name: str,
                 entry, arg_spec, buffers: dict, ret_kind: tuple,
                 fast: Optional[tuple]):
        self.module = module
        self.func_name = func_name
        self.entry = entry
        self.arg_spec = arg_spec
        # when no argument needs conversion, the caller's dict can be
        # handed straight to the generated function (it only reads)
        self.passthrough_names = (
            tuple(name for name, _ in arg_spec)
            if all(conv is None for _, conv in arg_spec) else None
        )
        self.buffers = buffers
        self.ret_kind = ret_kind
        self.normalize = ret_kind[0] not in ("i", "f", "v")
        self.n_blocks = module._n_blocks
        #: (cycles, retired, opcode Counter) for single-block
        #: call-free functions, whose accounting is the same on every
        #: successful run
        self.fast = fast
        # call-free code never touches ctl[0] and the fast path never
        # reads ctl[1], so one control record can be reused forever
        self._fast_ctl = [0, [0] * self.n_blocks]

    def run(self, args: Optional[dict] = None,
            step_limit: int = DEFAULT_STEP_LIMIT) -> ExecutionResult:
        names = self.passthrough_names
        if names is not None and args is not None:
            for name in names:
                if name not in args:
                    raise InterpreterError(
                        f"missing argument %{name} "
                        f"for @{self.func_name}"
                    )
            call_args = args
        else:
            call_args = {}
            for arg_name, convert in self.arg_spec:
                value = (args or {}).get(arg_name)
                if value is None:
                    raise InterpreterError(
                        f"missing argument %{arg_name} "
                        f"for @{self.func_name}"
                    )
                call_args[arg_name] = (value if convert is None
                                       else convert(value))
        fast = self.fast
        if fast is not None:
            value, _n = self.entry(call_args, self.buffers,
                                   self._fast_ctl, step_limit)
            cycles, retired, opcode_counts = fast
            opcode_counts = opcode_counts.copy()
        else:
            ctl = [0, [0] * self.n_blocks]
            value, _n = self.entry(call_args, self.buffers, ctl,
                                   step_limit)
            module = self.module
            block_cycles = module._cycles
            block_retired = module._retired
            block_ops = module._ops
            cycles = 0
            retired = 0
            opcode_counts = Counter()
            get = opcode_counts.get
            for index, count in enumerate(ctl[1]):
                if not count:
                    continue
                cycles += count * block_cycles[index]
                retired += count * block_retired[index]
                for opcode, per_block in block_ops[index].items():
                    opcode_counts[opcode] = (
                        (get(opcode) or 0) + count * per_block
                    )
        if self.normalize:
            value = _normalize_return(self.ret_kind, value)
        result = ExecutionResult.__new__(ExecutionResult)
        result.return_value = value
        result.cycles = cycles
        result.instructions_retired = retired
        result.opcode_counts = opcode_counts
        return result


class CompiledModule:
    """One loaded generated module, ready to execute."""

    def __init__(self, source: str, sha: Optional[str] = None):
        self.source = source
        self.sha256 = sha or source_sha256(source)
        self.namespace = _load_namespace(source, self.sha256)
        self.meta = self.namespace["_META"]
        if self.meta.get("version") != EMIT_VERSION:
            raise ValueError(
                f"generated source version "
                f"{self.meta.get('version')!r} != {EMIT_VERSION}"
            )
        self._cycles = self.namespace["_BLOCK_CYCLES"]
        self._retired = self.namespace["_BLOCK_RETIRED"]
        self._ops = self.namespace["_BLOCK_OPS"]
        self._n_blocks = self.meta["n_blocks"]
        self._runners: dict[str, tuple] = {}

    def supports(self, name: str) -> bool:
        return name in self.meta["functions"]

    def _runner(self, func_name: str) -> tuple:
        """(entry, [(arg, converter)], buffer names, ret kind, fast)
        — precomputed once per function so binding does no meta
        interpretation."""
        runner = self._runners.get(func_name)
        if runner is not None:
            return runner
        meta = self.meta["functions"][func_name]
        arg_spec = [
            (arg_name, tuple if kind[0] in ("iv", "fv") else None)
            for arg_name, kind in meta["args"]
        ]
        fast = None
        if meta["n_blocks"] == 1 and not meta["callees"]:
            # straight-line, call-free: the one block executes exactly
            # once per successful run, so its accounting is constant
            base = meta["block_base"]
            fast = (self._cycles[base], self._retired[base],
                    Counter(self._ops[base]))
        runner = (self.namespace[meta["py"]], arg_spec,
                  meta["buffers"], meta["ret"], fast)
        self._runners[func_name] = runner
        return runner

    def unsupported_reason(self, name: str) -> Optional[dict]:
        return self.meta["unsupported"].get(name)

    def bind(self, func_name: str,
             memory: MemoryImage) -> BoundFunction:
        """Resolve everything per-(function, memory) once.

        Raises :class:`UnsupportedConstruct` for functions the
        emitter declined, :class:`InterpreterError` for unknown
        functions or missing buffers.
        """
        if func_name not in self.meta["functions"]:
            reason = self.unsupported_reason(func_name)
            if reason is not None:
                raise UnsupportedConstruct(reason["construct"],
                                           reason["detail"])
            raise InterpreterError(
                f"no generated code for @{func_name}"
            )
        entry, arg_spec, buffer_names, ret_kind, fast = \
            self._runner(func_name)
        # the live buffer lists, without building Pointer objects
        raw = getattr(memory, "_buffers", None)
        buffers: dict[str, list] = {}
        for gname in buffer_names:
            buffer = raw.get(gname) if raw is not None else None
            if buffer is None:
                if gname not in memory:
                    raise InterpreterError(f"no buffer for @{gname}")
                buffer = memory.pointer_to(gname).buffer
            buffers[gname] = buffer
        return BoundFunction(self, func_name, entry, arg_spec,
                             buffers, ret_kind, fast)

    def run(self, func_name: str, memory: MemoryImage,
            args: Optional[dict] = None,
            step_limit: int = DEFAULT_STEP_LIMIT,
            on_retire=None, profile=None) -> ExecutionResult:
        """Execute one function; mirrors ``Interpreter.run``.

        Per-instruction hooks cannot be honored by flattened code, so
        requesting them raises :class:`UnsupportedConstruct` — the
        tier policy routes hooked runs to the interpreter.
        """
        if on_retire is not None or profile is not None:
            raise UnsupportedConstruct(
                "exec-hooks",
                "per-instruction hooks require the interpreter",
            )
        return self.bind(func_name, memory).run(args, step_limit)


def load_compiled(source: str) -> CompiledModule:
    """Load generated source, memoized by content hash."""
    return CompiledModule(source)


__all__ = [
    "BoundFunction",
    "CompiledModule",
    "clear_load_cache",
    "load_compiled",
    "source_sha256",
]
