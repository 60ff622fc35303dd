"""Fallback semantics: every construct the emitter deliberately
declines must (a) be recorded with its tag in
``EmittedModule.unsupported``, (b) raise :class:`UnsupportedConstruct`
under ``backend=compiled``, and (c) — where the function is otherwise
runnable — fall back to the interpreter under ``backend=auto`` with the
construct surfaced on the :class:`TierRun`.  The vector constructs the
emitter renders lane by lane run compiled and match the interpreter.
"""

from __future__ import annotations

import pytest

from repro.backend import (
    TieredExecutor,
    UnsupportedConstruct,
    cross_check,
    emit_module,
)
from repro.backend import tiers as tiers_mod
from repro.costmodel.targets import target_by_name
from repro.interp.interpreter import Interpreter, InterpreterError
from repro.interp.memory import MemoryImage
from repro.ir import (
    F64,
    Function,
    GlobalArray,
    I1,
    I64,
    IRBuilder,
    Module,
    PointerType,
)

TARGET = target_by_name("skylake-like")


def _unsupported(module, func_name):
    emitted = emit_module(module, TARGET)
    assert func_name in emitted.unsupported, (
        f"@{func_name} unexpectedly supported:\n{emitted.source}"
    )
    return emitted.unsupported[func_name]


def _auto_matches_interp(module, func_name, args, construct):
    """backend=auto must fall back AND agree with the interpreter."""
    mem_ref = MemoryImage(module)
    mem_ref.randomize(11)
    mem_cmp = mem_ref.clone()
    expected = Interpreter(mem_ref, TARGET).run(
        module.get_function(func_name), dict(args)
    )
    executor = TieredExecutor(module, mem_cmp, TARGET, backend="auto")
    run = executor.run(func_name, dict(args))
    assert run.fallback and run.tier == "interp"
    assert run.fallback_construct == construct
    assert run.result.return_value == expected.return_value
    assert run.result.cycles == expected.cycles
    assert mem_cmp.same_contents(mem_ref)


def _compiled_raises(module, func_name, construct, args=None):
    memory = MemoryImage(module)
    memory.randomize(11)
    executor = TieredExecutor(module, memory, TARGET,
                              backend="compiled")
    with pytest.raises(UnsupportedConstruct) as err:
        executor.run(func_name, dict(args or {}))
    assert err.value.construct == construct


# ---------------------------------------------------------------------------
# Construct triggers
# ---------------------------------------------------------------------------


def pointer_arg_module():
    m = Module("ptrarg")
    f = Function("touch", [("p", PointerType(F64)), ("i", I64)])
    f.return_type = F64
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.load(b.gep(f.argument("p"), f.argument("i"))))
    m.add_function(f)
    return m


def pointer_flow_module():
    """A select between two GEPs: a pointer produced by a non-GEP."""
    m = Module("ptrflow")
    a = m.add_global(GlobalArray("A", F64, 16))
    f = Function("pick", [("i", I64)])
    f.return_type = F64
    b = IRBuilder(f.add_block("entry"))
    lo = b.gep(a, b.i64(0))
    hi = b.gep(a, f.argument("i"))
    cond = b.icmp("sgt", f.argument("i"), b.i64(8))
    b.ret(b.load(b.select(cond, hi, lo)))
    m.add_function(f)
    return m


def vector_sdiv_module():
    m = Module("vsdiv")
    a = m.add_global(GlobalArray("A", I64, 16))
    f = Function("vdiv", [("i", I64)])
    b = IRBuilder(f.add_block("entry"))
    ptr = b.gep(a, f.argument("i"))
    vec = b.vload(ptr, 4)
    two = b.splat(b.i64(2), 4)
    b.store(b.binop("sdiv", vec, two), ptr)
    b.ret()
    m.add_function(f)
    return m


def dynamic_shift_module():
    m = Module("vshift")
    a = m.add_global(GlobalArray("A", I64, 16))
    f = Function("vshl", [("i", I64), ("k", I64)])
    b = IRBuilder(f.add_block("entry"))
    ptr = b.gep(a, f.argument("i"))
    vec = b.vload(ptr, 4)
    amount = b.splat(f.argument("k"), 4)
    b.store(b.shl(vec, amount), ptr)
    b.ret()
    m.add_function(f)
    return m


def i1_vector_module():
    """Mask *arithmetic*: an ``and`` of two i1 vectors."""
    m = Module("boolvec")
    a = m.add_global(GlobalArray("A", I64, 16))
    f = Function("mask", [("x", I64)])
    f.return_type = I64
    b = IRBuilder(f.add_block("entry"))
    vec = b.vload(b.gep(a, b.i64(0)), 4)
    zeros = b.splat(b.i64(0), 4)
    low = b.icmp("sgt", vec, zeros)
    high = b.icmp("slt", vec, b.splat(b.i64(7), 4))
    both = b.and_(low, high)
    b.ret(b.extractelement(both, 2))
    m.add_function(f)
    return m


def splat_mask_module():
    """A splat of an i1 condition: the uniform select mask
    if-conversion emits."""
    m = Module("splatmask")
    f = Function("mask", [("x", I64)])
    f.return_type = I64
    b = IRBuilder(f.add_block("entry"))
    bit = b.icmp("sgt", f.argument("x"), b.i64(0))
    vec = b.splat(bit, 4)
    b.ret(b.extractelement(vec, 2))
    m.add_function(f)
    return m


def i1_memory_module():
    """Storing a vector-compare result to an i1 array."""
    m = Module("boolmem")
    a = m.add_global(GlobalArray("A", I64, 16))
    masks = m.add_global(GlobalArray("M", I1, 16))
    f = Function("cmpstore", [("i", I64)])
    b = IRBuilder(f.add_block("entry"))
    ptr = b.gep(a, f.argument("i"))
    vec = b.vload(ptr, 4)
    mask = b.icmp("sgt", vec, b.splat(b.i64(0), 4))
    b.store(mask, b.gep(masks, f.argument("i")))
    b.ret()
    m.add_function(f)
    return m


def caller_of_unsupported_module():
    """Caller is clean; its callee selects between two pointers."""
    m = pointer_flow_module()
    callee = m.get_function("pick")
    caller = Function("outer", [("i", I64)])
    caller.return_type = F64
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(callee, [caller.argument("i")]))
    m.add_function(caller)
    return m


def simple_module():
    m = Module("simple")
    f = Function("ident", [("x", I64)])
    f.return_type = I64
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(f.argument("x"), b.i64(0)))
    m.add_function(f)
    return m


# ---------------------------------------------------------------------------
# Emitter metadata + compiled raises
# ---------------------------------------------------------------------------


def test_pointer_argument():
    m = pointer_arg_module()
    reason = _unsupported(m, "touch")
    assert reason["construct"] == "pointer-argument"
    assert "%p" in reason["detail"]
    _compiled_raises(m, "touch", "pointer-argument",
                     args={"p": None, "i": 0})


def test_pointer_flow():
    m = pointer_flow_module()
    reason = _unsupported(m, "pick")
    assert reason["construct"] == "pointer-flow"
    _compiled_raises(m, "pick", "pointer-flow", args={"i": 3})
    _auto_matches_interp(m, "pick", {"i": 12}, "pointer-flow")


@pytest.mark.parametrize("build, func_name, args", [
    (vector_sdiv_module, "vdiv", {"i": 4}),
    (dynamic_shift_module, "vshl", {"i": 4, "k": 3}),
    (i1_vector_module, "mask", {"x": 5}),
    (splat_mask_module, "mask", {"x": 5}),
    (i1_memory_module, "cmpstore", {"i": 4}),
], ids=["vector-sdiv", "dynamic-shift", "mask-and", "splat-mask",
        "mask-store"])
def test_vector_constructs_run_compiled_exactly(build, func_name, args):
    """Vector division, dynamic shifts and i1 vectors (mask arithmetic,
    splat masks, compare results stored to memory) render lane by lane
    and agree with the interpreter bit for bit."""
    m = build()
    emitted = emit_module(m, TARGET)
    assert func_name not in emitted.unsupported, emitted.unsupported
    result = cross_check(m, m.get_function(func_name), TARGET,
                         base_args=args, runs=3)
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs == 3


def test_callee_unsupported_propagates():
    m = caller_of_unsupported_module()
    reason = _unsupported(m, "outer")
    assert reason["construct"] == "callee-unsupported"
    assert "pointer-flow" in reason["detail"]
    _compiled_raises(m, "outer", "callee-unsupported", args={"i": 3})
    _auto_matches_interp(m, "outer", {"i": 12}, "callee-unsupported")


def test_unknown_function():
    m = simple_module()
    memory = MemoryImage(m)
    executor = TieredExecutor(m, memory, TARGET, backend="compiled")
    with pytest.raises(UnsupportedConstruct) as err:
        executor.run("nope", {})
    assert err.value.construct == "unknown-function"
    with pytest.raises(InterpreterError, match="no generated code"):
        executor.compiled.run("nope", memory)


def test_exec_hooks():
    m = simple_module()
    memory = MemoryImage(m)
    retired = []
    executor = TieredExecutor(m, memory, TARGET, backend="auto")
    run = executor.run("ident", {"x": 1},
                       on_retire=lambda inst, value:
                       retired.append(inst))
    assert run.fallback and run.fallback_construct == "exec-hooks"
    assert retired  # the hook really fired on the interpreter
    strict = TieredExecutor(m, memory, TARGET, backend="compiled")
    with pytest.raises(UnsupportedConstruct) as err:
        strict.run("ident", {"x": 1}, profile=lambda *a: None)
    assert err.value.construct == "exec-hooks"


def test_emit_error(monkeypatch):
    m = simple_module()

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic emitter crash")

    monkeypatch.setattr(tiers_mod, "emit_module", boom)
    memory = MemoryImage(m)
    executor = TieredExecutor(m, memory, TARGET, backend="auto")
    run = executor.run("ident", {"x": 41})
    assert run.fallback and run.fallback_construct == "emit-error"
    assert "synthetic emitter crash" in run.fallback_detail
    assert run.result.return_value == 41
    strict = TieredExecutor(m, memory, TARGET, backend="compiled")
    with pytest.raises(RuntimeError, match="synthetic emitter crash"):
        strict.run("ident", {"x": 1})


def test_supported_function_unaffected_by_unsupported_sibling():
    """One bad function must not poison the rest of the module."""
    m = pointer_flow_module()
    f = Function("ident", [("x", I64)])
    f.return_type = I64
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(f.argument("x"), b.i64(0)))
    m.add_function(f)
    memory = MemoryImage(m)
    memory.randomize(0)
    executor = TieredExecutor(m, memory, TARGET, backend="compiled")
    run = executor.run("ident", {"x": 9})
    assert run.tier == "compiled" and not run.fallback
    assert run.result.return_value == 9
