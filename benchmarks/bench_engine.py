"""Engine benchmarks: the CEK fast path against the substitution
stepper, written to ``BENCH_engine.json`` at the repo root (alongside
``BENCH_obs.json`` / ``BENCH_serve.json`` / ``BENCH_resilience.json``)
so CI archives the engine trajectory:

* ``deep_factorial`` -- the headline ISSUE acceptance number: wall time
  and steps/second for ``fact 200`` (Fig 17's functional factorial,
  depth 200) on both engines, plus the speedup ratio.  This doubles as
  the CI perf smoke: the test FAILS if the CEK engine is not faster
  than substitution on this workload, so a regression that loses the
  fast path cannot land quietly.
* ``examples`` -- per-paper-example wall time on both engines (mixed
  programs spend much of their time in T, so the ratio here bounds how
  much of each example is pure-F reduction).
* ``type_caches`` -- cold-vs-warm typecheck of the Fig 17 component:
  the second check hits the interning/memo caches of
  :mod:`repro.tal.subst` and :mod:`repro.tal.equality`.

The fast T engine's gate writes its own committed artifact,
``BENCH_fast_tier.json``: a mixed hot/cold corpus (two T-dominated
``count_t`` loops of 30 000 iterations, four runs each, plus eight cold
arithmetic jobs) through a 4-worker pool twice -- default (reference)
T engine, then ``tal_engine="fast"``.  Every value must agree and the
fast pool must be **>= 2x** the default one.  This is per-job work
reduction, so it holds regardless of host core count.

Timings are taken with instrumentation off (the conftest's instrumented
replay handles counter capture for ``BENCH_obs.json``); steps come from
the machine's own counters, which are engine-invariant by the
differential suite (``tests/test_engine_differential.py``).
"""

import json
import os
import pathlib
import platform
import subprocess
import time

import pytest

from repro.f.syntax import App, IntE
from repro.ft.machine import FTMachine
from repro.papers_examples import example_entries
from repro.papers_examples.fig17_factorial import build_count_t, build_fact_f
from repro.resilience.budget import Budget
from repro.tal.equality import clear_equality_cache
from repro.serve.pool import WorkerPool
from repro.serve.protocol import Job, JobOptions
from repro.tal.subst import clear_subst_caches, subst_cache_stats

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_engine.json"
_FAST_TIER_PATH = _REPO_ROOT / "BENCH_fast_tier.json"

_RESULTS = {}

ROUNDS = 5
FACT_DEPTH = 200
FACT_FUEL = 10_000_000


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if _RESULTS:
        _BENCH_PATH.write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _best(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_engine(program, engine):
    machine = FTMachine(budget=Budget(fuel=FACT_FUEL), engine=engine)
    value = machine.evaluate(program)
    return value, machine


def test_deep_factorial_speedup(record):
    program = App(build_fact_f(), (IntE(FACT_DEPTH),))
    rows = {}
    values = {}
    for engine in ("subst", "cek"):
        value, machine = _run_engine(program, engine)
        best = _best(lambda e=engine: _run_engine(program, e))
        values[engine] = (str(value), machine.steps)
        rows[engine] = {
            "best_s": round(best, 6),
            "steps": machine.steps,
            "steps_per_s": round(machine.steps / best),
            "fuel_used": machine.budget.fuel_used,
        }
    assert values["subst"] == values["cek"]
    speedup = rows["subst"]["best_s"] / rows["cek"]["best_s"]
    rows["speedup"] = round(speedup, 2)
    _RESULTS["deep_factorial"] = {"depth": FACT_DEPTH, **rows}
    record(f"fact({FACT_DEPTH}): subst {rows['subst']['steps_per_s']}/s, "
           f"cek {rows['cek']['steps_per_s']}/s, speedup {speedup:.1f}x")
    # The CI perf smoke: losing the fast path fails the build.  The
    # margin is deliberately loose (>1x, not the ~13x measured locally)
    # so shared-runner noise cannot flake the gate.
    assert speedup > 1.0, (
        f"cek engine not faster than subst on deep factorial "
        f"({rows['cek']['best_s']}s vs {rows['subst']['best_s']}s)")


def test_examples_both_engines(record):
    rows = {}
    for name, (_, build) in example_entries().items():
        program = build()
        per_engine = {}
        for engine in ("subst", "cek"):
            per_engine[engine] = round(
                _best(lambda e=engine: _run_engine(program, e)), 6)
        rows[name] = per_engine
        record(f"{name}: {per_engine}")
    _RESULTS["examples"] = rows
    assert rows


def test_typecheck_cache_warmup(record):
    from repro.papers_examples.fig17_factorial import build_fact_t
    from repro.ft.typecheck import check_ft_expr

    program = App(build_fact_t(), (IntE(6),))

    def cold():
        clear_subst_caches()
        clear_equality_cache()
        check_ft_expr(program)

    def warm():
        check_ft_expr(program)

    cold_s = _best(cold)
    warm()                       # populate once before timing warm hits
    warm_s = _best(warm)
    stats = subst_cache_stats()
    _RESULTS["type_caches"] = {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "subst_cache": stats,
    }
    record(f"typecheck fig17: cold {cold_s * 1e3:.3f}ms, "
           f"warm {warm_s * 1e3:.3f}ms")
    # Warm checks must actually hit the caches (the point of the layer).
    assert any(s["hits"] > 0 for s in stats.values())


FAST_TIER_WORKERS = 4
HOT_NS = (30_000, 30_001)       # two distinct hot components
HOT_REPEATS = 4
COLD_SOURCES = tuple(f"(({i} + {i + 1}) * {i + 2})" for i in range(8))


def _hot_source(n):
    """A T-dominated countdown loop (countT n == n): ~3 T steps per
    iteration, so one run is tens of thousands of T steps."""
    return str(App(build_count_t(), (IntE(n),)))


def _fast_tier_corpus(**options):
    jobs = [Job("run", id=f"hot-{n}#{rep}", source=_hot_source(n),
                options=JobOptions(no_cache=True, **options))
            for rep in range(HOT_REPEATS) for n in HOT_NS]
    jobs += [Job("run", id=f"cold-{i}", source=src,
                 options=JobOptions(no_cache=True, **options))
             for i, src in enumerate(COLD_SOURCES)]
    return jobs


def _timed_pool_batch(**options):
    """One warm-up job, then the whole corpus through a fresh pool."""
    jobs = _fast_tier_corpus(**options)
    with WorkerPool(FAST_TIER_WORKERS, cache=None,
                    default_timeout=120.0) as pool:
        pool.submit(Job("run", source=_hot_source(50),
                        options=JobOptions(no_cache=True,
                                           **options))).wait(60.0)
        start = time.perf_counter()
        results = pool.run_batch(jobs, timeout=600.0)
        elapsed = time.perf_counter() - start
    assert all(r.ok for r in results), [r.error for r in results
                                        if not r.ok]
    return {r.id: r for r in results}, elapsed


def _commit():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=_REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def test_fast_tier_pool_throughput_vs_default(record):
    default, default_s = _timed_pool_batch()
    fast, fast_s = _timed_pool_batch(tal_engine="fast")

    # Zero wrong answers: the fast pool reproduces the default one.
    assert default.keys() == fast.keys()
    for job_id, result in fast.items():
        assert result.output["value"] == default[job_id].output["value"], \
            job_id
        assert result.output["tier"]["tal_engine"] == "fast"
    assert all(r.output["tier"]["tal_engine"] == "ref"
               for r in default.values())

    speedup = default_s / fast_s if fast_s else float("inf")
    artifact = {
        "throughput": {
            "jobs": len(fast),
            "hot_jobs": HOT_REPEATS * len(HOT_NS),
            "workers": FAST_TIER_WORKERS,
            "default_s": round(default_s, 4),
            "fast_s": round(fast_s, 4),
            "jobs_per_s_default": round(len(default) / default_s, 1),
            "jobs_per_s_fast": round(len(fast) / fast_s, 1),
            "speedup": round(speedup, 3),
        },
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "commit": _commit()},
    }
    _FAST_TIER_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    record(f"fast tier: {len(fast)}-job mixed corpus default="
           f"{default_s:.3f}s fast={fast_s:.3f}s speedup={speedup:.2f}x")
    # The gate: a pool on the fast T engine serves this corpus at least
    # 2x faster than the default (reference) pool.
    assert speedup >= 2.0, (
        f"fast-engine pool only {speedup:.2f}x the default pool "
        f"(gate: >= 2x)")
