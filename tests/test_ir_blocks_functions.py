"""Tests for basic blocks, functions and modules."""

import random

import pytest

from repro.ir import (
    BinaryOperator,
    Constant,
    Function,
    GlobalArray,
    I64,
    IRBuilder,
    Module,
    Ret,
)


def make_func():
    func = Function("f", [("i", I64)])
    block = func.add_block("entry")
    return func, block


class TestBasicBlock:
    def test_append_sets_parent(self):
        func, block = make_func()
        inst = BinaryOperator("add", func.argument("i"), Constant(I64, 1))
        block.append(inst)
        assert inst.parent is block
        assert len(block) == 1

    def test_double_insert_rejected(self):
        func, block = make_func()
        inst = BinaryOperator("add", func.argument("i"), Constant(I64, 1))
        block.append(inst)
        with pytest.raises(ValueError):
            block.append(inst)

    def test_insert_before_and_after(self):
        func, block = make_func()
        i = func.argument("i")
        first = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        third = block.append(BinaryOperator("add", i, Constant(I64, 3)))
        second = BinaryOperator("add", i, Constant(I64, 2))
        block.insert_before(third, second)
        fourth = BinaryOperator("add", i, Constant(I64, 4))
        block.insert_after(third, fourth)
        assert block.instructions == [first, second, third, fourth]

    def test_index_of_and_order(self):
        func, block = make_func()
        i = func.argument("i")
        insts = [
            block.append(BinaryOperator("add", i, Constant(I64, k)))
            for k in range(5)
        ]
        for pos, inst in enumerate(insts):
            assert block.index_of(inst) == pos
        assert block.comes_before(insts[1], insts[3])
        assert not block.comes_before(insts[3], insts[1])

    def test_index_cache_invalidation(self):
        func, block = make_func()
        i = func.argument("i")
        a = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        b = block.append(BinaryOperator("add", i, Constant(I64, 2)))
        assert block.index_of(b) == 1
        block.remove(a)
        assert block.index_of(b) == 0

    def test_index_of_foreign_instruction(self):
        func, block = make_func()
        other = BinaryOperator("add", func.argument("i"), Constant(I64, 1))
        with pytest.raises(ValueError):
            block.index_of(other)

    def test_remove_interleaved_with_inserts_and_queries(self):
        """Many removals, with the position cache alternately valid
        (after a query) and stale (after an edit), against a plain list
        model of the block."""
        func, block = make_func()
        i = func.argument("i")
        rng = random.Random(7)
        model = [
            block.append(BinaryOperator("add", i, Constant(I64, k)))
            for k in range(60)
        ]
        for step in range(400):
            action = rng.random()
            if action < 0.4 and model:
                victim = rng.choice(model)
                if rng.random() < 0.5:
                    block.index_of(model[0])  # leave the cache valid
                block.remove(victim)
                model.remove(victim)
                assert victim.parent is None
            elif action < 0.7 and model:
                anchor = rng.choice(model)
                inst = BinaryOperator("add", i, Constant(I64, 100 + step))
                block.insert_before(anchor, inst)
                model.insert(model.index(anchor), inst)
            elif model:
                a, b = rng.choice(model), rng.choice(model)
                assert block.index_of(a) == model.index(a)
                assert block.comes_before(a, b) == (
                    model.index(a) < model.index(b))
            assert block.instructions == model
        for pos, inst in enumerate(model):
            assert block.index_of(inst) == pos

    def test_remove_foreign_instruction_rejected(self):
        func, block = make_func()
        i = func.argument("i")
        inside = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        other_block = func.add_block("other")
        elsewhere = other_block.append(
            BinaryOperator("add", i, Constant(I64, 2)))
        detached = BinaryOperator("add", i, Constant(I64, 3))
        for warm_cache in (False, True):
            if warm_cache:
                block.index_of(inside)
            for inst in (elsewhere, detached):
                with pytest.raises(ValueError):
                    block.remove(inst)
        assert block.instructions == [inside]
        assert elsewhere.parent is other_block

    def test_move_before(self):
        func, block = make_func()
        i = func.argument("i")
        a = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        b = block.append(BinaryOperator("add", i, Constant(I64, 2)))
        b.move_before(a)
        assert block.instructions == [b, a]

    def test_terminator(self):
        func, block = make_func()
        assert block.terminator is None
        ret = block.append(Ret())
        assert block.terminator is ret

    def test_erase_from_parent(self):
        func, block = make_func()
        i = func.argument("i")
        inst = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        inst.erase_from_parent()
        assert len(block) == 0
        assert i.num_uses == 0

    def test_erase_used_instruction_rejected(self):
        func, block = make_func()
        i = func.argument("i")
        a = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        block.append(BinaryOperator("add", a, Constant(I64, 2)))
        with pytest.raises(ValueError):
            a.erase_from_parent()


class TestFunction:
    def test_arguments(self):
        func = Function("f", [("i", I64), ("j", I64)])
        assert [a.name for a in func.arguments] == ["i", "j"]
        assert func.argument("j").type is I64
        with pytest.raises(KeyError):
            func.argument("k")

    def test_unique_names(self):
        func = Function("f", [])
        assert func.unique_name("t") == "t"
        assert func.unique_name("t") == "t1"
        assert func.unique_name("t") == "t2"
        assert func.unique_name("u") == "u"

    def test_entry_requires_block(self):
        func = Function("f", [])
        with pytest.raises(ValueError):
            _ = func.entry
        block = func.add_block("entry")
        assert func.entry is block

    def test_instructions_iterates_in_order(self):
        func, block = make_func()
        i = func.argument("i")
        a = block.append(BinaryOperator("add", i, Constant(I64, 1)))
        b = block.append(BinaryOperator("add", a, Constant(I64, 2)))
        assert list(func.instructions()) == [a, b]


class TestModule:
    def test_globals(self):
        module = Module("m")
        array = module.add_global(GlobalArray("A", I64, 4))
        assert module.get_global("A") is array
        with pytest.raises(ValueError):
            module.add_global(GlobalArray("A", I64, 4))
        with pytest.raises(KeyError):
            module.get_global("B")

    def test_functions(self):
        module = Module("m")
        func = module.add_function(Function("f", []))
        assert module.get_function("f") is func
        with pytest.raises(ValueError):
            module.add_function(Function("f", []))
        with pytest.raises(KeyError):
            module.get_function("g")


class TestIRBuilder:
    def test_auto_naming(self):
        func, block = make_func()
        builder = IRBuilder(block)
        add = builder.add(func.argument("i"), builder.i64(1))
        assert add.name == "add"
        add2 = builder.add(add, builder.i64(2))
        assert add2.name == "add1"

    def test_position_before(self):
        func, block = make_func()
        builder = IRBuilder(block)
        i = func.argument("i")
        a = builder.add(i, builder.i64(1))
        b = builder.add(i, builder.i64(2))
        builder.position_before(b)
        c = builder.add(i, builder.i64(3))
        assert block.instructions == [a, c, b]

    def test_build_vector_emits_insert_chain(self):
        func, block = make_func()
        builder = IRBuilder(block)
        i = func.argument("i")
        a = builder.add(i, builder.i64(1))
        b = builder.add(i, builder.i64(2))
        vec = builder.build_vector([a, b])
        assert vec.type.is_vector
        assert vec.type.count == 2
        assert vec.opcode == "insertelement"

    def test_build_vector_rejects_empty(self):
        func, block = make_func()
        builder = IRBuilder(block)
        with pytest.raises(ValueError):
            builder.build_vector([])

    def test_vload(self):
        func, block = make_func()
        module = Module("m")
        array = module.add_global(GlobalArray("A", I64, 8))
        builder = IRBuilder(block)
        ptr = builder.gep(array, func.argument("i"))
        load = builder.vload(ptr, 4)
        assert load.type.is_vector
        assert load.type.count == 4
