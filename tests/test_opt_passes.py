"""Tests for the scalar optimization passes ("O3")."""

import pytest

from repro.analysis.aliasing import AliasAnalysis
from repro.ir import (
    Call,
    Constant,
    Function,
    GlobalArray,
    I64,
    IRBuilder,
    Module,
    parse_module,
    print_function,
    print_module,
    Store,
    verify_function,
)
from repro.kernels import ALL_KERNELS, build_suite, SuiteSpec
from repro.opt import (
    PassManager,
    run_constfold,
    run_cse,
    run_dce,
    run_instcombine,
    scalar_pipeline,
)
from repro.opt.cse import _expression_key, _load_key


def make_env():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 64))
    func = Function("f", [("i", I64)])
    builder = IRBuilder(func.add_block("entry"))
    return module, func, builder, a


class TestConstFold:
    def test_folds_constant_chain(self):
        module, func, builder, a = make_env()
        x = builder.add(builder.i64(2), builder.i64(3))
        y = builder.mul(x, builder.i64(4))
        store = builder.store(y, builder.gep(a, func.argument("i")))
        builder.ret()
        assert run_constfold(func)
        verify_function(func)
        folded = store.value
        assert isinstance(folded, Constant)
        assert folded.value == 20

    def test_preserves_division_by_zero(self):
        module, func, builder, a = make_env()
        div = builder.sdiv(builder.i64(1), builder.i64(0))
        builder.store(div, builder.gep(a, func.argument("i")))
        builder.ret()
        assert not run_constfold(func)
        assert div.parent is not None

    def test_folds_cmp_and_select(self):
        module, func, builder, a = make_env()
        cmp = builder.icmp("slt", builder.i64(1), builder.i64(2))
        sel = builder.select(cmp, builder.i64(10), builder.i64(20))
        store = builder.store(sel, builder.gep(a, func.argument("i")))
        builder.ret()
        run_constfold(func)
        verify_function(func)
        assert isinstance(store.value, Constant)
        assert store.value.value == 10

    def test_no_change_on_symbolic(self):
        module, func, builder, a = make_env()
        x = builder.add(func.argument("i"), builder.i64(1))
        builder.store(x, builder.gep(a, func.argument("i")))
        builder.ret()
        assert not run_constfold(func)


class TestDCE:
    def test_removes_dead_chain(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.add(i, builder.i64(1))
        builder.mul(x, builder.i64(2))  # dead
        builder.ret()
        assert run_dce(func)
        verify_function(func)
        assert len(func.entry) == 1  # only ret

    def test_keeps_stores(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        builder.store(builder.i64(1), builder.gep(a, i))
        builder.ret()
        assert not run_dce(func)
        assert len(func.entry) == 3

    def test_removes_dead_loads(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        builder.load(builder.gep(a, i))  # dead load: no side effects here
        builder.ret()
        assert run_dce(func)
        assert len(func.entry) == 1


class TestCSE:
    def test_merges_identical_geps_and_adds(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x1 = builder.add(i, builder.i64(1))
        x2 = builder.add(i, builder.i64(1))
        builder.store(x1, builder.gep(a, x1))
        builder.store(x2, builder.gep(a, x2))
        builder.ret()
        assert run_cse(func)
        run_dce(func)
        verify_function(func)
        adds = [inst for inst in func.entry if inst.opcode == "add"]
        assert len(adds) == 1

    def test_does_not_merge_loads(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        ptr = builder.gep(a, i)
        l1 = builder.load(ptr)
        builder.store(builder.add(l1, builder.i64(1)), ptr)
        l2 = builder.load(ptr)  # after a store: must not merge with l1
        builder.store(l2, builder.gep(a, builder.add(i, builder.i64(1))))
        builder.ret()
        run_cse(func)
        loads = [inst for inst in func.entry if inst.opcode == "load"]
        assert len(loads) == 2

    def test_commutative_operands_merge_swapped(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        j = builder.add(i, builder.i64(7))
        x1 = builder.mul(i, j)
        x2 = builder.mul(j, i)
        builder.store(builder.add(x1, x2), builder.gep(a, i))
        builder.ret()
        assert run_cse(func)
        muls = [inst for inst in func.entry if inst.opcode == "mul"]
        assert len(muls) == 1

    def test_non_commutative_not_merged_swapped(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        j = builder.add(i, builder.i64(7))
        x1 = builder.sub(i, j)
        x2 = builder.sub(j, i)
        builder.store(builder.add(x1, x2), builder.gep(a, i))
        builder.ret()
        run_cse(func)
        subs = [inst for inst in func.entry if inst.opcode == "sub"]
        assert len(subs) == 2

    def test_cascade_merges_in_one_call(self):
        """``t2 = a+b`` duplicates ``t1``; once merged, ``t2*c`` is a
        duplicate of ``t1*c``.  One call folds both."""
        module, func, builder, a = make_env()
        i = func.argument("i")
        b = builder.load(builder.gep(a, builder.i64(3)))
        c = builder.load(builder.gep(a, builder.i64(5)))
        t1 = builder.add(i, b)
        u1 = builder.mul(t1, c)
        t2 = builder.add(i, b)
        u2 = builder.mul(t2, c)
        store1 = builder.store(u1, builder.gep(a, i))
        store2 = builder.store(u2, builder.gep(a, t1))
        builder.ret()
        assert run_cse(func)
        verify_function(func)
        assert t2.parent is None and u2.parent is None
        assert store1.value is u1 and store2.value is u1
        assert [inst.opcode for inst in func.entry].count("mul") == 1
        assert not run_cse(func)

    def test_may_alias_store_kills_load_after_merge(self):
        """The geps merge first, so both loads read through one pointer;
        the store between them may write that element (its index is
        unknown), so the second load must stay.  A store to another
        array does not kill it."""
        module, func, builder, a = make_env()
        b_array = module.add_global(GlobalArray("B", I64, 64))
        i = func.argument("i")
        j = builder.load(builder.gep(b_array, builder.i64(0)))
        p1 = builder.gep(a, i)
        l1 = builder.load(p1)
        builder.store(builder.i64(9), builder.gep(a, j))  # may alias
        p2 = builder.gep(a, i)
        l2 = builder.load(p2)
        builder.store(builder.i64(7), builder.gep(b_array, i))  # no alias
        l3 = builder.load(builder.gep(a, i))
        builder.store(builder.add(builder.add(l1, l2), l3),
                      builder.gep(a, builder.i64(1)))
        builder.ret()
        assert run_cse(func)
        verify_function(func)
        assert p2.parent is None and l2.ptr is p1
        assert l2.parent is not None          # killed by the may-alias store
        assert l3.parent is None              # merged into l2
        loads = [inst for inst in func.entry if inst.opcode == "load"]
        assert loads == [j, l1, l2]


def restart_cse(func: Function) -> bool:
    """The block scan ``run_cse`` replaced, kept as its reference: after
    every merge, restart the block with freshly built tables."""
    changed = False
    aa = AliasAnalysis()
    for block in func.blocks:
        progress = True
        while progress:
            progress = False
            seen: dict = {}
            loads: dict = {}
            for inst in block.instructions:
                if isinstance(inst, Call):
                    loads.clear()
                    continue
                if isinstance(inst, Store):
                    loads = {
                        key: load
                        for key, load in loads.items()
                        if not aa.instructions_may_conflict(load, inst)
                    }
                    continue
                key = _expression_key(inst)
                table = seen
                if key is None:
                    key = _load_key(inst)
                    table = loads
                if key is None:
                    continue
                original = table.get(key)
                if original is None:
                    table[key] = inst
                    continue
                inst.replace_all_uses_with(original)
                inst.erase_from_parent()
                changed = True
                progress = True
                break
    return changed


SUITE_SEEDS = (0, 1, 2, 3, 453)
CSE_CASES = sorted(ALL_KERNELS) + [f"suite-{seed}" for seed in SUITE_SEEDS]


def cse_input(case: str) -> str:
    """The printed module of a catalog kernel or a generated suite."""
    if case.startswith("suite-"):
        seed = int(case.split("-")[1])
        return print_module(build_suite(SuiteSpec(case, 1, 2, 2, seed=seed)))
    module, _ = ALL_KERNELS[case].build()
    return print_module(module)


class TestCSEMatchesRestartScan:
    @pytest.mark.parametrize("case", CSE_CASES)
    def test_same_ir_and_result(self, case):
        text = cse_input(case)
        ours, reference = parse_module(text), parse_module(text)
        for name, func in ours.functions.items():
            expected = restart_cse(reference.get_function(name))
            assert run_cse(func) == expected
            assert print_function(func) == print_function(
                reference.get_function(name))

    @pytest.mark.parametrize("case", CSE_CASES)
    def test_same_ir_through_the_scalar_pipeline(self, case):
        """Every cse run of the scalar pipeline (including the
        post-unroll one, with if-conversion and unroll-and-SLP on) sees
        the input the restart scan would, and returns the same flag."""
        text = cse_input(case)
        ours, reference = parse_module(text), parse_module(text)
        for name, func in ours.functions.items():
            manager = scalar_pipeline(ifconvert="on", loop_vectorize=True)
            ref_manager = scalar_pipeline(ifconvert="on",
                                          loop_vectorize=True)
            ref_manager.wrap_passes(
                lambda pass_name, pass_fn: (
                    restart_cse if pass_name.startswith("cse") else pass_fn))
            result = manager.run_function(func)
            ref_func = reference.get_function(name)
            ref_result = ref_manager.run_function(ref_func)
            assert [(t.name, t.changed) for t in result.timings] == [
                (t.name, t.changed) for t in ref_result.timings]
            assert print_function(func) == print_function(ref_func)

    def test_cases_exercise_merges(self):
        merged = 0
        for case in CSE_CASES:
            module = parse_module(cse_input(case))
            merged += sum(run_cse(func)
                          for func in module.functions.values())
        assert merged >= len(CSE_CASES)


class TestInstCombine:
    @pytest.mark.parametrize("opcode,identity", [
        ("add", 0), ("sub", 0), ("shl", 0), ("or", 0), ("xor", 0),
        ("mul", 1),
    ])
    def test_identity_elements(self, opcode, identity):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.binop(opcode, i, builder.i64(identity))
        builder.store(x, builder.gep(a, i))
        builder.ret()
        assert run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert store.value is i

    def test_mul_by_zero(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.mul(i, builder.i64(0))
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert isinstance(store.value, Constant)
        assert store.value.value == 0

    def test_sub_self_is_zero(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.sub(i, i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert isinstance(store.value, Constant)
        assert store.value.value == 0

    def test_and_self_is_self(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.and_(i, i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert store.value is i

    def test_constants_canonicalize_right(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.add(builder.i64(5), i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        assert run_instcombine(func)
        assert isinstance(x.rhs, Constant)
        assert x.lhs is i


class TestPassManager:
    def test_records_timings(self):
        module, func, builder, a = make_env()
        builder.add(func.argument("i"), builder.i64(0))
        builder.ret()
        manager = scalar_pipeline()
        result = manager.run_function(func)
        assert len(result.timings) == len(manager.pass_names)
        assert result.total_seconds >= 0
        assert result.seconds_for("dce") >= 0

    def test_pipeline_cleans_frontend_noise(self):
        from tests.conftest import build_kernel

        module, func = build_kernel("""
long A[64], B[64];
void kernel(long i) {
    A[i + 0] = B[i + 0] + 0;
}
""")
        scalar_pipeline().run_function(func)
        verify_function(func)
        opcodes = [inst.opcode for inst in func.entry]
        # add i+0 folded away; single gep per array; direct store of load
        assert opcodes.count("add") == 0


class TestVerifyEach:
    def test_pipeline_verifies_between_passes(self):
        from tests.conftest import build_kernel
        from repro.opt import compile_function
        from repro.slp import VectorizerConfig
        from repro.kernels import EVALUATION_KERNELS

        for kernel in EVALUATION_KERNELS:
            _, func = kernel.build()
            compile_function(func, VectorizerConfig.lslp(),
                             verify_each=True)

    def test_broken_pass_is_named(self):
        from repro.ir import Function, I64, IRBuilder, VerificationError
        from repro.opt import PassManager

        func = Function("f", [("i", I64)])
        builder = IRBuilder(func.add_block("entry"))
        a = builder.add(func.argument("i"), builder.i64(1))
        builder.add(a, builder.i64(2))
        builder.ret()

        def evil_pass(f):
            block = f.entry
            first = block.instructions[0]
            block.remove(first)
            block.append(first)  # def now after use
            return True

        manager = PassManager(verify_each=True).add("evil", evil_pass)
        with pytest.raises(VerificationError, match="after pass 'evil'"):
            manager.run_function(func)
