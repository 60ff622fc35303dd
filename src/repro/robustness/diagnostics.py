"""Structured compiler diagnostics: error taxonomy and remark stream.

Every recoverable incident on the compile path — a pass that raised, IR
that failed verification, a budget that ran dry, an oracle mismatch, a
loop or branch left as is — is recorded as a :class:`Remark` carrying
the pass, function, phase and a remediation hint.  Strict mode escalates
the same information as a :class:`CompilerError` subclass, so callers
can catch one taxonomy whether the failure came from a transform, the
verifier, or execution.

One diagnostics path: each incident is one :meth:`DiagnosticEngine.emit`
call on the function's compile context (:func:`current` finds it from
any depth), which keeps the remark, streams it, and emits the site's
typed record and counters.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..obs import metrics as _metrics
from ..obs import records as _records


class Severity(enum.Enum):
    """How bad a remark is; mirrors clang's remark/warning/error split."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"


@dataclass
class Remark:
    """One structured diagnostic, cheap enough to collect unconditionally."""

    severity: Severity
    category: str          #: "rollback" | "budget" | "miscompile" | "config" | ...
    message: str
    function: str = ""     #: function being compiled, when known
    pass_name: str = ""    #: pass that triggered the remark, when known
    phase: str = ""        #: "transform" | "verify" | "oracle" | "budget"
    remediation: str = ""  #: what a user can do about it

    def render(self) -> str:
        return f"{self.severity.value}: {self.category}" + _located(
            self.message, self.function, self.pass_name, self.remediation
        )


def _located(message: str, function: str, pass_name: str,
             remediation: str) -> str:
    """`` [@function, pass 'name']: message (hint: ...)``."""
    where = [f"@{function}"] if function else []
    if pass_name:
        where.append(f"pass {pass_name!r}")
    location = f" [{', '.join(where)}]" if where else ""
    hint = f" (hint: {remediation})" if remediation else ""
    return f"{location}: {message}{hint}"


class CompilerError(Exception):
    """Base of the strict-mode error taxonomy.

    Carries the same structured fields as a :class:`Remark` so a caller
    catching ``CompilerError`` can attribute the failure without parsing
    the message.
    """

    phase = "compile"

    def __init__(self, message: str, *, function: str = "",
                 pass_name: str = "", remediation: str = ""):
        self.function = function
        self.pass_name = pass_name
        self.remediation = remediation
        super().__init__(self.phase + _located(message, function, pass_name,
                                               remediation))


class PassCrashError(CompilerError):
    """A pass raised an exception while transforming a function."""

    phase = "transform"


class InvalidIRError(CompilerError):
    """The IR verifier rejected a function after a pass ran."""

    phase = "verify"


class MiscompileError(CompilerError):
    """The differential oracle observed a scalar/vector output mismatch."""

    phase = "oracle"


class BudgetExceededError(CompilerError):
    """A resource budget was exceeded and degradation was forbidden."""

    phase = "budget"


@dataclass
class DiagnosticEngine(_records.Context):
    """The per-function compile context: the ambient records context
    while :meth:`open`, named for the running pass, and the function's
    remarks in emission order (``CompileResult.remarks``)."""

    remarks: list[Remark] = field(default_factory=list)

    @contextmanager
    def open(self, pass_name: str = "") -> Iterator["DiagnosticEngine"]:
        """Make this the ambient context, naming ``pass_name`` (when
        given) as the running pass."""
        previous, outer = _records.enter(self), self.pass_name
        if pass_name:
            self.pass_name = pass_name
        try:
            yield self
        finally:
            self.pass_name = outer
            _records.enter(previous)

    def emit(self, severity: Severity, category: str, message: str, *,
             function: str = "", pass_name: str = "", phase: str = "",
             remediation: str = "", record: str = "",
             counters: Optional[dict[str, int]] = None,
             **fields) -> Remark:
        """Report one incident: keep the remark, stream it, and emit the
        site's typed ``record`` (with ``fields``) and ``counters``."""
        remark = Remark(severity, category, message,
                        function=function or self.function,
                        pass_name=pass_name or self.pass_name,
                        phase=phase, remediation=remediation)
        self.remarks.append(remark)
        _records.emit_remark(remark)
        if record:
            _records.emit(record, **fields)
        for name, count in (counters or {}).items():
            _metrics.add(name, count)
        return remark

    def note(self, category: str, message: str, **kw) -> Remark:
        return self.emit(Severity.NOTE, category, message, **kw)

    def warning(self, category: str, message: str, **kw) -> Remark:
        return self.emit(Severity.WARNING, category, message, **kw)

    def error(self, category: str, message: str, **kw) -> Remark:
        return self.emit(Severity.ERROR, category, message, **kw)

    def render(self) -> list[str]:
        return [remark.render() for remark in self.remarks]


def current() -> DiagnosticEngine:
    """The ambient compile context; outside one, a detached engine whose
    remarks stream but are kept nowhere."""
    context = _records.current()
    return (context if isinstance(context, DiagnosticEngine)
            else DiagnosticEngine())


def compiling(function: str, config: str = "", pass_name: str = ""):
    """Open the compile context for ``function`` (naming ``pass_name``):
    the ambient one when it is ``function``'s, else a fresh one — a pass
    manager or SLP driver run on its own gets a context too."""
    engine = _records.current()
    if not isinstance(engine, DiagnosticEngine) or engine.function != function:
        engine = DiagnosticEngine(function, config)
    return engine.open(pass_name)


__all__ = [
    "BudgetExceededError",
    "compiling",
    "CompilerError",
    "current",
    "DiagnosticEngine",
    "InvalidIRError",
    "MiscompileError",
    "PassCrashError",
    "Remark",
    "Severity",
]
