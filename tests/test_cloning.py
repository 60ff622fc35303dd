"""Tests for instruction cloning with value remapping."""

from dataclasses import replace

import pytest

from repro.ir import (
    Br,
    clone_function,
    clone_instruction,
    Constant,
    Function,
    GlobalArray,
    I64,
    IRBuilder,
    map_value,
    Module,
    Phi,
    print_function,
    verify_function,
)
from repro.kernels import ALL_KERNELS
from repro.opt import compile_function
from repro.slp import VectorizerConfig


@pytest.fixture
def env():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = Function("f", [("i", I64), ("j", I64)])
    builder = IRBuilder(func.add_block("entry"))
    return module, func, builder, a


def test_map_value_identity_default(env):
    module, func, builder, a = env
    i = func.argument("i")
    assert map_value(i, {}) is i
    j = func.argument("j")
    assert map_value(i, {id(i): j}) is j


def test_clone_binop_with_remap(env):
    module, func, builder, a = env
    i, j = func.arguments
    add = builder.add(i, builder.i64(1))
    clone = clone_instruction(add, {id(i): j})
    assert clone is not add
    assert clone.opcode == "add"
    assert clone.operands[0] is j
    assert clone.operands[1] is add.operands[1]
    assert clone.parent is None


def test_clone_memory_chain(env):
    module, func, builder, a = env
    i, j = func.arguments
    gep = builder.gep(a, i)
    load = builder.load(gep)
    store = builder.store(load, gep)
    vmap = {id(i): j}
    gep2 = clone_instruction(gep, vmap)
    vmap[id(gep)] = gep2
    load2 = clone_instruction(load, vmap)
    vmap[id(load)] = load2
    store2 = clone_instruction(store, vmap)
    assert gep2.index is j
    assert load2.ptr is gep2
    assert store2.value is load2
    assert store2.ptr is gep2


def test_clone_cmp_select_and_vector_ops(env):
    module, func, builder, a = env
    i, j = func.arguments
    cmp = builder.icmp("slt", i, j)
    sel = builder.select(cmp, i, j)
    vec = builder.build_vector([i, j])
    shuf = builder.shufflevector(vec, vec, [1, 0])
    ext = builder.extractelement(shuf, 0)
    splat = builder.splat(ext, 2)
    for inst in (cmp, sel, shuf, ext, splat):
        clone = clone_instruction(inst, {})
        assert clone.opcode == inst.opcode
        assert clone.type is inst.type
    cmp_clone = clone_instruction(cmp, {})
    assert cmp_clone.predicate == "slt"
    shuf_clone = clone_instruction(shuf, {})
    assert shuf_clone.mask == (1, 0)


def test_control_flow_not_clonable(env):
    module, func, builder, a = env
    other = func.add_block("other")
    br = Br(other)
    with pytest.raises(ValueError, match="control flow"):
        clone_instruction(br, {})
    phi = Phi(I64)
    with pytest.raises(ValueError, match="control flow"):
        clone_instruction(phi, {})


# ---------------------------------------------------------------------------
# clone_function use-list order
# ---------------------------------------------------------------------------


def use_lists(func):
    """Every value's uses by ``func``'s instructions, as (block, index,
    operand) positions, keyed by the value's own position (shared values
    by identity)."""
    position = {id(arg): ("arg", k) for k, arg in enumerate(func.arguments)}
    for b, block in enumerate(func.blocks):
        for k, inst in enumerate(block):
            position[id(inst)] = (b, k)
    values = {}
    for block in func.blocks:
        for inst in block:
            values[id(inst)] = inst
            for operand in inst.operands:
                values.setdefault(id(operand), operand)
    values.update((id(arg), arg) for arg in func.arguments)
    return {
        position.get(id(value), ("shared", id(value))): [
            (*position[id(use.user)], use.index)
            for use in value.uses if id(use.user) in position
        ]
        for value in values.values()
    }


def block_order(func):
    """The order the two-pass clone always produced: non-phi users in
    block order, then phi edges in block order."""
    def expected(uses):
        phi_uses = [u for u in uses if func.blocks[u[0]].instructions[u[1]]
                    .opcode == "phi"]
        return sorted(set(uses) - set(phi_uses)) + sorted(phi_uses)

    return {key: expected(uses) for key, uses in use_lists(func).items()}


LOOP_VECTORIZE = replace(VectorizerConfig.lslp(), loop_vectorize=True)


@pytest.mark.parametrize("config", [None, LOOP_VECTORIZE],
                         ids=["lowered", "loop-vectorized"])
def test_clone_use_lists_in_block_order(config):
    """Use-list order steers later passes, so a snapshot restored by the
    guard must order uses exactly as the clone always did."""
    _, func = ALL_KERNELS["loop-dot"].build()
    if config is not None:
        compile_function(func, config)
    clone = clone_function(func)
    verify_function(clone)
    assert print_function(clone) == print_function(func)
    assert use_lists(clone) == block_order(clone)
    assert any(len(uses) > 1 for uses in use_lists(clone).values())


def test_clone_forward_reference_keeps_block_order():
    """A use in a block listed before its def's block is patched in the
    second pass, yet still lands ahead of the uses that follow the def."""
    module = Module("m")
    array = module.add_global(GlobalArray("A", I64, 16))
    func = Function("f", [("i", I64)])
    entry, use, define = (func.add_block(name)
                          for name in ("entry", "use", "def"))
    IRBuilder(entry).br(define)
    builder = IRBuilder(define)
    x = builder.add(func.argument("i"), builder.i64(1))
    y = builder.mul(x, x)
    builder.br(use)
    builder = IRBuilder(use)
    builder.store(builder.add(x, y), builder.gep(array, x))
    builder.ret()
    verify_function(func)
    clone = clone_function(func)
    verify_function(clone)
    uses = use_lists(clone)
    assert uses == block_order(clone)
    # x (block 2, index 0): two forward uses in "use", then y's two
    assert uses[(2, 0)] == [(1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1)]
