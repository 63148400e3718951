"""Property tests for the boundary translations (Fig 10's metatheory):

* first-order values survive a TF-then-FT round trip unchanged;
* the round trip of a *function* is behaviourally identity (tested by
  application on generated arguments);
* translated words inhabit the translated type (type preservation of the
  value translation);
* round trips through a plain arrow collapse: a wrapper translated back
  at the type it was built at yields the value it wraps, and nothing
  else collapses.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.pipeline import compile_term
from repro.equiv import check_equivalence
from repro.equiv.generators import values_of
from repro.f.syntax import (
    App, FArrow, FInt, Fold, FRec, FTupleT, FUnit, IntE, is_value, Lam,
    TupleE, UnitE,
)
from repro.ft.boundary import (
    build_lambda_wrapper, build_stack_lambda_wrapper, f_to_t, t_to_f,
)
from repro.ft.machine import FTMachine
from repro.ft.syntax import Boundary, FStackArrow, Import, Protect, StackLam
from repro.ft.translate import type_translation
from repro.papers_examples import fig16_two_blocks, fig17_factorial, push7
from repro.tal.equality import types_equal
from repro.tal.heap import HeapCell, Memory
from repro.tal.syntax import (
    BOX, Component, Halt, HCode, HeapTy, InstrSeq, Salloc, Sfree, StackTy,
    TInt, WLoc, seq,
)
from repro.tal.typecheck import TalTypechecker


def _first_order_type(seed: int, depth: int = 2):
    rng = random.Random(seed)

    def gen(d):
        opts = ["int", "unit"]
        if d > 0:
            opts += ["tuple", "mu"]
        kind = rng.choice(opts)
        if kind == "int":
            return FInt()
        if kind == "unit":
            return FUnit()
        if kind == "tuple":
            return FTupleT(tuple(gen(d - 1)
                                 for _ in range(rng.randint(1, 3))))
        return FRec("a", gen(d - 1))

    return gen(depth)


def _value_of(ty, seed):
    rng = random.Random(seed)
    if isinstance(ty, FInt):
        return IntE(rng.randint(-99, 99))
    if isinstance(ty, FUnit):
        return UnitE()
    if isinstance(ty, FTupleT):
        return TupleE(tuple(_value_of(t, seed + i + 1)
                            for i, t in enumerate(ty.items)))
    if isinstance(ty, FRec):
        return Fold(ty, _value_of(ty.unroll(), seed + 1))
    raise AssertionError(ty)


class TestFirstOrderRoundTrip:
    @given(st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, seed):
        ty = _first_order_type(seed)
        v = _value_of(ty, seed)
        mem = Memory()
        w = f_to_t(v, ty, mem)
        assert t_to_f(w, ty, mem) == v

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_translated_word_inhabits_translated_type(self, seed):
        ty = _first_order_type(seed)
        v = _value_of(ty, seed)
        mem = Memory()
        w = f_to_t(v, ty, mem)
        # synthesize Psi for everything allocated during translation;
        # allocation order is inner-first, so an incremental Psi suffices
        entries = {}
        for loc, cell in mem.heap.items():
            checker = TalTypechecker(HeapTy.of(entries))
            entries[loc] = (cell.nu, checker.check_heap_value(cell.value))
        psi = HeapTy.of(entries)
        from repro.tal.syntax import RegFileTy

        word_ty = TalTypechecker(psi).type_of_operand((), RegFileTy(), w)
        assert types_equal(word_ty, type_translation(ty))


class TestFunctionRoundTrip:
    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_wrapped_function_behaves_identically(self, seed):
        rng = random.Random(seed)
        arrow = FArrow((FInt(),), FInt())
        candidates = list(values_of(arrow, rng, budget=2))
        fn = candidates[seed % len(candidates)]
        machine = FTMachine(fuel=10**6)
        wrapped = t_to_f(f_to_t(fn, arrow, machine.memory), arrow,
                         machine.memory)
        for n in (-3, 0, 4):
            direct = machine.eval_fexpr(App(fn, (IntE(n),)))
            through = machine.eval_fexpr(App(wrapped, (IntE(n),)))
            assert direct == through

    def test_heap_grows_only_with_allocating_types(self):
        mem = Memory()
        f_to_t(IntE(1), FInt(), mem)
        assert not mem.heap  # ints allocate nothing
        f_to_t(TupleE((IntE(1),)), FTupleT((FInt(),)), mem)
        assert len(mem.heap) == 1


INT_ARROW = FArrow((FInt(),), FInt())
ARROWS = (
    INT_ARROW,
    FArrow((INT_ARROW,), FInt()),
    FArrow((FInt(), FInt()), FInt()),
)


def _arrow_values(ty):
    return list(values_of(ty, random.Random(0), budget=2))


def _code_pointer(v, ty):
    """A T-native code pointer for ``v``: its compiled block."""
    machine = FTMachine()
    word = machine.run_component(compile_term(v).component).word
    return word, machine.memory


def _edit_instr(seq_, index, instr):
    instrs = list(seq_.instrs)
    instrs[index] = instr
    return InstrSeq(tuple(instrs), seq_.term)


def _term_round_trip(v, ty):
    """The term ``FT_ty(TF_ty v)``: import ``v`` into T and hand it back."""
    return Boundary(ty, Component(seq(
        Protect((), "z"),
        Import("r1", StackTy((), "z"), ty, v),
        Halt(type_translation(ty), StackTy((), "z"), "r1"))))


class TestRoundTripCollapse:
    @pytest.mark.parametrize("ty", ARROWS, ids=str)
    def test_f_value_survives_round_trip(self, ty):
        for v in _arrow_values(ty):
            mem = Memory()
            assert t_to_f(f_to_t(v, ty, mem), ty, mem) == v

    @pytest.mark.parametrize("ty", ARROWS, ids=str)
    def test_t_code_pointer_survives_round_trip(self, ty):
        for v in _arrow_values(ty):
            w, mem = _code_pointer(v, ty)
            assert f_to_t(t_to_f(w, ty, mem), ty, mem) is w

    def test_lambda_wrapper_at_another_arrow_type_is_kept(self):
        v = _arrow_values(INT_ARROW)[0]
        other = FArrow((FUnit(),), FInt())
        mem = Memory()
        back = t_to_f(f_to_t(v, INT_ARROW, mem), other, mem)
        assert back != v
        assert isinstance(back.body, Boundary)

    def test_call_back_at_another_arrow_type_is_kept(self):
        v = _arrow_values(INT_ARROW)[0]
        w, mem = _code_pointer(v, INT_ARROW)
        other = FArrow((FUnit(),), FInt())
        lam = t_to_f(w, INT_ARROW, mem)
        there = f_to_t(lam, other, mem)
        assert there != w
        assert mem.code_at(there.loc) == build_lambda_wrapper(lam, other)

    def test_near_miss_lambda_wrapper_is_kept(self):
        v = _arrow_values(INT_ARROW)[0]
        block = build_lambda_wrapper(v, INT_ARROW)
        # one instruction changed: free one slot too many
        edited = dataclasses.replace(
            block, instrs=_edit_instr(block.instrs, 4, Sfree(3)))
        mem = Memory()
        w = WLoc(mem.alloc(edited, BOX, base="lam"))
        back = t_to_f(w, INT_ARROW, mem)
        assert back != v
        assert back.body.comp.instrs.term.u == w

    def test_near_miss_call_back_is_kept(self):
        v = _arrow_values(INT_ARROW)[0]
        w, mem = _code_pointer(v, INT_ARROW)
        lam = t_to_f(w, INT_ARROW, mem)
        comp = lam.body.comp
        # one instruction changed: allocate two slots for the argument
        edited_comp = dataclasses.replace(
            comp, instrs=_edit_instr(comp.instrs, 2, Salloc(2)))
        edited = Lam(lam.params, dataclasses.replace(lam.body,
                                                     comp=edited_comp))
        there = f_to_t(edited, INT_ARROW, mem)
        assert there != w
        assert mem.code_at(there.loc) == build_lambda_wrapper(
            edited, INT_ARROW)

    def test_call_back_with_foreign_end_block_is_kept(self):
        v = _arrow_values(INT_ARROW)[0]
        w, mem = _code_pointer(v, INT_ARROW)
        lam = t_to_f(w, INT_ARROW, mem)
        lend = lam.body.comp.instrs.instrs[-1].u.body.loc
        end = mem.code_at(lend)
        mem.heap[lend] = HeapCell(BOX, HCode(
            end.delta, end.chi, end.sigma, end.q,
            InstrSeq((Salloc(1),), end.instrs.term)))
        assert f_to_t(lam, INT_ARROW, mem) != w

    def test_stack_arrow_always_rewraps(self):
        arrow = FStackArrow((FInt(),), FUnit(), (), (TInt(),))
        slam = push7.build()
        mem = Memory()
        w = f_to_t(slam, arrow, mem)
        back = t_to_f(w, arrow, mem)
        assert isinstance(back, StackLam) and back != slam
        again = f_to_t(back, arrow, mem)
        assert again != w
        assert mem.code_at(again.loc) == build_stack_lambda_wrapper(
            back, arrow)

    @pytest.mark.parametrize("build", [
        fig16_two_blocks.build_f1, fig16_two_blocks.build_f2,
        fig17_factorial.build_fact_f, fig17_factorial.build_fact_t,
    ], ids=lambda b: b.__name__)
    def test_term_round_trip_is_equivalent(self, build):
        v = build()
        report = check_equivalence(_term_round_trip(v, INT_ARROW), v,
                                   INT_ARROW, fuel=20_000)
        assert report.equivalent, str(report)
