"""Compiled recursion stays linear: Fig 10 round-trip wrappers collapse.

Compiled ``factF`` crosses the F/T boundary on every recursion level.
Without the round-trip collapse in :mod:`repro.ft.boundary` each crossing
wrapped a closure that was already a wrapper, so work doubled per level.
These tests pin the linear shape: values, fuel growth, crossings per
level, and exact fuel-split resumption on every engine pair.
"""

import math
import sys

import pytest

from repro import obs
from repro.compile.pipeline import compile_term
from repro.errors import FuelExhausted
from repro.f.cek import ENGINES
from repro.f.syntax import App, IntE
from repro.ft.machine import FTMachine
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot

TAL_ENGINES = ("ref", "fast")
FUEL = 1_000_000


@pytest.fixture(scope="module", autouse=True)
def deep_host_stack():
    # Each recursion level nests an F evaluator inside a T machine.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 100_000))
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="module")
def compiled_fact():
    return compile_term(build_fact_f()).wrapped


def _run(fn, n, **kwargs):
    machine = FTMachine(budget=Budget(fuel=FUEL), **kwargs)
    value = machine.evaluate(App(fn, (IntE(n),)))
    return value, machine.budget.fuel_used


def _crossings(fn, n):
    obs.disable()
    obs.reset()
    obs.enable(record=False)
    try:
        _run(fn, n)
        counters = obs.OBS.metrics.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return sum(v for k, v in counters.items()
               if k.startswith("ft.boundary."))


@pytest.mark.parametrize("n", range(13))
def test_compiled_value_matches_interpreter(compiled_fact, n):
    interpreted, _ = _run(build_fact_f(), n)
    compiled, _ = _run(compiled_fact, n)
    assert compiled == interpreted == IntE(math.factorial(n))


def test_fuel_grows_linearly(compiled_fact):
    _, fuel6 = _run(compiled_fact, 6)
    _, fuel12 = _run(compiled_fact, 12)
    assert fuel12 / fuel6 <= 2.5, (fuel6, fuel12)


def test_crossings_grow_by_a_constant_per_level(compiled_fact):
    c6, c9, c12 = (_crossings(compiled_fact, n) for n in (6, 9, 12))
    assert c9 - c6 == c12 - c9 > 0, (c6, c9, c12)


def test_collapse_counter_only_when_enabled(compiled_fact):
    obs.disable()
    obs.reset()
    _run(compiled_fact, 4)
    assert obs.OBS.metrics.counter("ft.translate.collapsed") == 0
    obs.enable(record=False)
    try:
        _run(compiled_fact, 4)
        assert obs.OBS.metrics.counter("ft.translate.collapsed") > 0
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tal_engine", TAL_ENGINES)
def test_split_resume_is_exact(compiled_fact, engine, tal_engine):
    program = App(compiled_fact, (IntE(8),))
    whole = FTMachine(budget=Budget(fuel=FUEL), engine=engine,
                      tal_engine=tal_engine)
    expected = whole.evaluate(program)
    total = whole.budget.fuel_used
    for k in sorted({1, total // 4, total // 2, 3 * total // 4, total - 1}):
        machine = FTMachine(budget=Budget(fuel=k), engine=engine,
                            tal_engine=tal_engine)
        with pytest.raises(FuelExhausted):
            machine.evaluate(program)
        assert machine.suspended
        assert machine.resume(fuel=total - k) == expected, k
        assert machine.budget.fuel_used == total - k, k


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_resume_is_exact(compiled_fact, engine):
    """Collapse reads only the (pickled) heap, so a checkpoint taken
    mid-recursion resumes to the same value on the same fuel."""
    program = App(compiled_fact, (IntE(8),))
    expected, total = _run(compiled_fact, 8, engine=engine)
    k = total // 2
    machine = FTMachine(budget=Budget(fuel=k), engine=engine)
    with pytest.raises(FuelExhausted):
        machine.evaluate(program)
    wire = machine.snapshot().to_wire()
    revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
    assert revived.resume(fuel=total - k) == expected
    assert revived.budget.fuel_used == total - k
