"""Printer/parser round-trip and error tests."""

import re
from collections import Counter
from dataclasses import replace

import pytest

from repro.frontend import compile_kernel_source
from repro.interp import compare_runs
from repro.kernels import ALL_KERNELS, EXTENDED_KERNELS
from repro.opt.pipelines import compile_module
from repro.slp import VectorizerConfig
from repro.ir import (
    Function,
    GlobalArray,
    I64,
    F64,
    IRBuilder,
    IRParseError,
    Module,
    parse_module,
    print_function,
    print_instruction,
    print_module,
    verify_module,
)
from repro.ir.values import VectorConstant
from repro.ir.types import vector_of


def roundtrip(module: Module) -> Module:
    text = print_module(module)
    parsed = parse_module(text)
    verify_module(parsed)
    assert print_module(parsed) == text
    return parsed


def test_roundtrip_arithmetic_kernel():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = module.add_function(Function("k", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    i = func.argument("i")
    ptr = builder.gep(a, i)
    load = builder.load(ptr)
    shl = builder.shl(load, builder.i64(2))
    xor = builder.xor(shl, builder.i64(-1))
    builder.store(xor, ptr)
    builder.ret()
    roundtrip(module)


def test_roundtrip_all_binops():
    module = Module("m")
    func = module.add_function(Function("k", [("x", I64), ("y", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    x, y = func.arguments
    for opcode in ("add", "sub", "mul", "sdiv", "srem", "and", "or",
                   "xor", "shl", "lshr", "ashr", "smin", "smax"):
        builder.binop(opcode, x, y)
    builder.ret()
    roundtrip(module)


def test_roundtrip_float_ops():
    module = Module("m")
    func = module.add_function(Function("k", [("x", F64), ("y", F64)],
                                        F64))
    builder = IRBuilder(func.add_block("entry"))
    x, y = func.arguments
    mul = builder.fmul(x, y)
    neg = builder.fneg(mul)
    cmp = builder.fcmp("olt", neg, y)
    sel = builder.select(cmp, neg, x)
    builder.ret(sel)
    roundtrip(module)


def test_roundtrip_vector_ops():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = module.add_function(Function("k", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    ptr = builder.gep(a, func.argument("i"))
    vec = builder.vload(ptr, 4)
    shuf = builder.shufflevector(vec, vec, [3, 2, 1, 0])
    ext = builder.extractelement(shuf, 2)
    splat = builder.splat(ext, 4)
    added = builder.add(splat, vec)
    builder.store(added, ptr)
    builder.ret()
    roundtrip(module)


def test_roundtrip_vector_constant():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = module.add_function(Function("k", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    ptr = builder.gep(a, func.argument("i"))
    vec = builder.vload(ptr, 2)
    vc = VectorConstant(vector_of(I64, 2), [1, 3])
    added = builder.add(vec, vc)
    builder.store(added, ptr)
    builder.ret()
    text = print_module(module)
    assert "<2 x i64> <1, 3>" in text
    roundtrip(module)


def test_roundtrip_float_literals():
    module = Module("m")
    func = module.add_function(Function("k", [("x", F64)], F64))
    builder = IRBuilder(func.add_block("entry"))
    v = builder.fmul(func.argument("x"), builder.const(F64, 2.5))
    builder.ret(v)
    roundtrip(module)


def test_print_instruction_forms():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = module.add_function(Function("k", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    i = func.argument("i")
    ptr = builder.gep(a, i)
    load = builder.load(ptr)
    assert print_instruction(ptr) == "%ptr = gep i64* @A, i64 %i"
    assert print_instruction(load) == "%ld = load i64, i64* %ptr"
    store = builder.store(load, ptr)
    assert print_instruction(store) == "store i64 %ld, i64* %ptr"
    cmp = builder.icmp("slt", load, builder.i64(3))
    assert print_instruction(cmp) == "%cmp = icmp slt i64 %ld, i64 3"


def test_parse_errors_have_line_numbers():
    bad = 'module "m"\n\n@A = global [x i64]\n'
    with pytest.raises(IRParseError) as info:
        parse_module(bad)
    assert info.value.line_no == 3


def test_parse_rejects_undefined_value():
    text = """
define void @k(i64 %i) {
entry:
  %a = add i64 %i, i64 %ghost
  ret void
}
"""
    with pytest.raises(IRParseError, match="undefined value"):
        parse_module(text)


def test_parse_rejects_type_mismatch():
    text = """
define void @k(i64 %i) {
entry:
  %a = add i64 %i, i64 1
  %b = add i32 %a, i32 1
  ret void
}
"""
    with pytest.raises(IRParseError):
        parse_module(text)


def test_parse_rejects_redefined_value():
    """A second definition must not silently shadow the first: every
    later use would bind to the wrong value."""
    text = """
define void @k(i64 %i) {
entry:
  %a = add i64 %i, i64 1
  %a = add i64 %i, i64 2
  ret void
}
"""
    with pytest.raises(IRParseError, match="redefinition of value %a"):
        parse_module(text)
    clash = ("define void @k(i64 %i) {\nentry:\n"
             "  %i = add i64 %i, i64 1\n  ret void\n}\n")
    with pytest.raises(IRParseError, match="redefinition of value %i"):
        parse_module(clash)


def test_unique_name_never_returns_a_taken_name():
    func = Function("k", [("add", I64)])
    assert func.unique_name("add") == "add1"
    assert [func.unique_name("ptr") for _ in range(2)] == ["ptr", "ptr1"]
    # an existing name passed back as the hint, as the inliner does
    assert func.unique_name("ptr1") == "ptr11"
    assert func.unique_name("ptr") == "ptr2"
    func.unique_name("ld1")  # the parser reserves names as it meets them
    assert [func.unique_name("ld") for _ in range(2)] == ["ld", "ld2"]


def test_argument_named_like_an_opcode_round_trips():
    """``%add = add i64 %add, i64 1`` used to read its own result."""
    source = ("long A[64], B[64], C[64]; void kernel(long add) { "
              "A[add + 1] = B[add + 2] + C[add]; A[add + 2] = B[add] * 3; }")
    parsed = roundtrip(compile_kernel_source(source))
    reference = compile_kernel_source(source)
    outcome = compare_runs(
        (reference, reference.get_function("kernel")),
        (parsed, parsed.get_function("kernel")), args={"add": 1}, seed=3,
    )
    assert outcome.equivalent, outcome.detail


LSLP_FULL = replace(VectorizerConfig.lslp(), name="LSLP-full",
                    ifconvert="on", loop_vectorize=True,
                    plan_select="module-greedy")
_KERNELS = {k.name: k for k in list(ALL_KERNELS.values())
            + list(EXTENDED_KERNELS)}
_ARGUMENT = re.compile(r"%([\w.]+)[,)]")


@pytest.mark.parametrize("kernel, config", [
    ("ext.boy-surface-loop", VectorizerConfig.o3()),
    ("ext.boy-surface-loop", VectorizerConfig.slp_nr()),
    ("ext.mult-su2-lib", VectorizerConfig.o3()),
    ("ext.mult-su2-lib", VectorizerConfig.slp_nr()),
    ("loop-dot", LSLP_FULL),
    ("loop-max", LSLP_FULL),
    ("loop-saxpy", LSLP_FULL),
    ("loop-strided-sum", LSLP_FULL),
], ids=lambda value: getattr(value, "name", value))
def test_inlined_and_unrolled_names_stay_unique(kernel, config):
    """The inliner and unroller pass existing names (``ptr1``) back as
    hints; the printed IR must still define each name once."""
    module, _ = _KERNELS[kernel].build()
    compile_module(module, config)
    text = print_module(module)
    for body in text.split("define ")[1:]:
        header, _, rest = body.partition("\n")
        names = _ARGUMENT.findall(header) + re.findall(
            r"^\s*%([\w.]+) = ", rest, re.MULTILINE)
        twice = [n for n, count in Counter(names).items() if count > 1]
        assert not twice, (header, twice)
    parse_module(text)


def test_parse_rejects_unterminated_function():
    text = 'define void @k() {\nentry:\n  ret void\n'
    with pytest.raises(IRParseError, match="unterminated"):
        parse_module(text)


def test_parse_comments_and_blank_lines():
    text = """
module "m"

; a full-line comment
@A = global [4 x i64]

define void @k(i64 %i) {  ; trailing comment is not allowed on define
entry:
  ret void  ; comment
}
"""
    # the define line has a comment *after* the brace, which the strip
    # removes, so this parses
    module = parse_module(text)
    assert "A" in module.globals


def test_function_print_shape():
    module = Module("m")
    func = module.add_function(Function("k", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    builder.ret()
    text = print_function(func)
    assert text.startswith("define void @k(i64 %i) {")
    assert text.endswith("}")
    assert "entry:" in text
