"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend import compile_kernel_source
from repro.ir import Function, IRBuilder, Module, verify_function


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Leave the observability layer disabled and empty around every
    test, whatever order tests run in (pytest-randomly safe)."""
    import repro.obs

    repro.obs.reset()
    yield
    repro.obs.reset()


@pytest.fixture
def module():
    return Module("test")


@pytest.fixture
def func_builder():
    """A (function, IRBuilder) pair with an empty entry block."""
    from repro.ir import I64

    func = Function("f", [("i", I64)])
    block = func.add_block("entry")
    return func, IRBuilder(block)


def build_kernel(source: str, entry: str = "kernel"):
    """Compile mini-C ``source`` and return (module, entry function)."""
    module = compile_kernel_source(source)
    return module, module.get_function(entry)


def assert_verifies(func: Function) -> None:
    verify_function(func)


@pytest.fixture
def exec_counts(monkeypatch):
    """Count top-level interpreter runs (calls into a callee are part of
    their caller's run) and memory-image randomizations."""
    from collections import Counter

    from repro.interp.interpreter import Interpreter
    from repro.interp.memory import MemoryImage

    counts: Counter = Counter()
    real_run, real_randomize = Interpreter.run, MemoryImage.randomize

    def run(self, func, args=None, *rest, _depth=0, **kwargs):
        if _depth == 0:
            counts["runs"] += 1
        return real_run(self, func, args, *rest, _depth=_depth, **kwargs)

    def randomize(self, *args, **kwargs):
        counts["randomizations"] += 1
        return real_randomize(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "run", run)
    monkeypatch.setattr(MemoryImage, "randomize", randomize)
    return counts
