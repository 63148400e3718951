"""Seeded input generators for the three benchmark workloads.

Every generated input carries its expected answer, computed here in
plain Python from the generator's own parameters: ``c * n!``, a loop's
start plus its count, a pipeline's arithmetic, or, for ``typecheck``
jobs, the expected type string.  No answer comes from the program under
test.  The program templates are the surface-syntax renderings of the
paper's Fig 11, 16 and 17 examples with their constants opened up.

The same seed always yields the same sequence of inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

__all__ = ["Prog", "serve_jobs", "t_loop_jobs", "compiled_f_jobs",
           "WARMUP_SERVE", "WARMUP_T_LOOP", "WARMUP_COMPILED_F"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# -- surface-syntax templates ---------------------------------------------

# The continuation and boundary types every Fig 16/17 component shares.
_CONT = "box forall[].{r1: int; z} e"
_ENTRY = "code[zeta z, eps e]{ra: " + _CONT + "; int :: z} ra"
_HALT = ("halt box forall[zeta z, eps e].{ra: " + _CONT
         + "; int :: z} ra, z {r1}")
_LOOP_ENTRY = ("code[zeta z, eps e]{r3: int, r7: int, ra: " + _CONT
               + "; int :: z} ra")


def _int_boundary(entry: str, heap: str) -> str:
    """``lam (x: int). (FT[(int) -> int](protect; mv r1, entry; halt,
    heap)) (x)`` -- the Fig 16/17 wrapper around an ``int -> int``
    component."""
    return ("lam (x: int). (FT[(int) -> int](protect <>, z; mv r1, "
            f"{entry}; {_HALT}, {{{heap}}})) (x)")


def fig16_one_block(a: int, b: int) -> str:
    """Fig 16 ``f1`` with its two increments opened up: ``x + a + b``."""
    return _int_boundary("ladd", (
        f"ladd -> {_ENTRY}. sld r1, 0; add r1, r1, {a}; add r1, r1, {b}; "
        "sfree 1; ret ra {r1}"))


def fig16_two_blocks(a: int, b: int) -> str:
    """Fig 16 ``f2``: ``x + a`` in one block, ``+ b`` in a second."""
    return _int_boundary("ladd", (
        f"ladd -> {_ENTRY}. sld r1, 0; add r1, r1, {a}; sst 0, r1; "
        f"jmp laddaux[z, e]; laddaux -> {_ENTRY}. sld r1, 0; "
        f"add r1, r1, {b}; sfree 1; ret ra {{r1}}"))


def fig17_fact_t(c: int) -> str:
    """Fig 17 ``factT`` with accumulator seed ``c``: ``c * n!``."""
    return _int_boundary("lfact", (
        f"lfact -> {_ENTRY}. sld r3, 0; mv r7, {c}; bnz r3, lloop[z, e]; "
        f"sfree 1; mv r1, {c}; ret ra {{r1}}; lloop -> {_LOOP_ENTRY}. "
        "mul r7, r7, r3; sub r3, r3, 1; bnz r3, lloop[z, e]; sfree 1; "
        "mv r1, r7; ret ra {r1}"))


def count_t(start: int) -> str:
    """``build_count_t(start)``: the factT loop with ``add``, so it
    answers ``start + n``."""
    return _int_boundary("lcount", (
        f"lcount -> {_ENTRY}. sld r3, 0; mv r7, {start}; "
        f"bnz r3, lcloop[z, e]; sfree 1; mv r1, {start}; ret ra {{r1}}; "
        f"lcloop -> {_LOOP_ENTRY}. add r7, r7, 1; sub r3, r3, 1; "
        "bnz r3, lcloop[z, e]; sfree 1; mv r1, r7; ret ra {r1}"))


def fig17_fact_f(c: int) -> str:
    """Fig 17 ``factF`` with base case ``c``: ``c * n!``."""
    mu = "mu a. (a) -> (int) -> int"
    body = (f"lam (f: {mu}). lam (x: int). if0 x {{{c}}} "
            "{(((unfold (f)) (f)) ((x - 1)) * x)}")
    return f"lam (x: int). (({body}) (fold[{mu}] ({body}))) (x)"


_TAU = "((int) -> int) -> int"


def fig11_jit_boundary(m: int) -> str:
    """The Fig 11 mixed program's assembly half, with ``lh`` multiplying
    by ``m``; its type is ``(tau) -> int``."""
    ra = "box forall[].{r1: int; z} e"
    i2i = ("box forall[zeta z, eps e].{ra: " + ra + "; int :: z} ra")
    tau = ("box forall[zeta z, eps e].{ra: " + ra + "; " + i2i
           + " :: z} ra")
    outer = ("box forall[zeta z, eps e].{ra: " + ra + "; " + tau
             + " :: z} ra")
    heap = (
        f"l -> code[zeta z, eps e]{{ra: {ra}; {tau} :: z}} ra. sld r1, 0; "
        "salloc 1; mv r2, lh; sst 0, r2; sst 1, ra; mv ra, lgret[z, e]; "
        f"call r1 {{{ra} :: z, 0}}; "
        f"lh -> code[zeta z, eps e]{{ra: {ra}; int :: z}} ra. sld r1, 0; "
        f"sfree 1; mul r1, r1, {m}; ret ra {{r1}}; "
        f"lgret -> code[zeta z, eps e]{{r1: int; {ra} :: z}} 0. "
        "sld ra, 0; sfree 1; ret ra {r1}")
    return (f"FT[({_TAU}) -> int](mv r1, l; halt {outer}, nil {{r1}}, "
            f"{{{heap}}})")


def fig11_g(k: int) -> str:
    """Fig 11's interpreted ``g``, calling its argument on ``k``."""
    return f"lam (h: (int) -> int). (h) ({k})"


def fig11_source(k: int, m: int) -> str:
    """The all-F Fig 11 source program: ``k * m``."""
    return (f"(lam (g: {_TAU}). (g) (lam (x: int). (x * {m}))) "
            f"({fig11_g(k)})")


def compose(a: int, b: int, k: int) -> str:
    """``compose (+a) (*b) k``: ``k * b + a``."""
    return ("(((lam (f: (int) -> int). lam (g: (int) -> int). lam (x: int). "
            f"(f) ((g) (x))) (lam (x: int). (x + {a}))) "
            f"(lam (x: int). (x * {b}))) ({k})")


def twice(a: int, k: int) -> str:
    """``twice (+a) k``: ``k + 2a``."""
    return ("((lam (f: (int) -> int). lam (x: int). (f) ((f) (x))) "
            f"(lam (x: int). (x + {a}))) ({k})")


def apply(fn: str, arg: int) -> str:
    return f"({fn}) ({arg})"


# -- inputs ----------------------------------------------------------------


@dataclass(frozen=True)
class Prog:
    """One generated input.

    ``kind`` is ``run`` or ``typecheck``; ``source`` the surface text;
    ``expected`` the answer as the program prints it (a value or a type
    string).  ``arg`` is the ``--apply`` argument of compiled-f inputs
    (``None`` for closed terms); ``family`` names the template, for the
    reports.  ``repeat`` marks an exact resubmission of an earlier input.
    """

    kind: str
    source: str
    expected: str
    family: str
    arg: Optional[int] = None
    repeat: bool = False


def _spread(i: int, offset: float, lo: int, hi: int) -> int:
    """The ``i``-th point of a golden-ratio sequence over ``[lo, hi]``:
    every prefix covers the range evenly, so runs of any length see the
    same size mix."""
    frac = (offset + i * _GOLDEN) % 1.0
    return lo + int((hi - lo) * frac)


def _serve_fresh(rng: random.Random) -> Prog:
    """One fresh serve-mix input: a seeded paper example, either run or
    typechecked.  Runs stay well under a millisecond of engine time."""
    family = rng.choice(("fig11-jit", "fig11-source", "fig16-one",
                         "fig16-two", "fig17-fact-f", "fig17-fact-t",
                         "count-t"))
    typecheck = rng.random() < 0.4
    if family in ("fig11-jit", "fig11-source"):
        k, m = rng.randint(1, 50), rng.randint(2, 9)
        if family == "fig11-jit":
            if typecheck and rng.random() < 0.5:
                return Prog("typecheck", fig11_jit_boundary(m),
                            f"({_TAU}) -> int", family)
            src = f"({fig11_jit_boundary(m)}) ({fig11_g(k)})"
        else:
            src = fig11_source(k, m)
        return Prog("typecheck", src, "int", family) if typecheck \
            else Prog("run", src, str(k * m), family)
    if family in ("fig16-one", "fig16-two"):
        a, b, x = rng.randint(1, 99), rng.randint(1, 99), rng.randint(0, 999)
        fn = (fig16_one_block if family == "fig16-one"
              else fig16_two_blocks)(a, b)
        answer = x + a + b
    elif family == "fig17-fact-f":
        c, x = rng.randint(1, 999), rng.randint(0, 6)
        fn, answer = fig17_fact_f(c), c * math.factorial(x)
    elif family == "fig17-fact-t":
        c, x = rng.randint(1, 999), rng.randint(0, 10)
        fn, answer = fig17_fact_t(c), c * math.factorial(x)
    else:
        start, x = rng.randint(0, 9999), rng.randint(10, 200)
        fn, answer = count_t(start), start + x
    if typecheck:
        if rng.random() < 0.5:
            return Prog("typecheck", fn, "(int) -> int", family)
        return Prog("typecheck", apply(fn, x), "int", family)
    return Prog("run", apply(fn, x), str(answer), family)


def serve_jobs(seed: int) -> Iterator[Prog]:
    """serve-mix: short, mostly distinct typecheck and run jobs; about
    one in ten is an exact resubmission of a recent job."""
    rng = random.Random(f"serve-mix:{seed}")
    recent: List[Prog] = []
    while True:
        if len(recent) >= 20 and rng.random() < 0.1:
            prog = rng.choice(recent[-50:])
            yield Prog(prog.kind, prog.source, prog.expected, prog.family,
                       repeat=True)
            continue
        prog = _serve_fresh(rng)
        recent.append(prog)
        if len(recent) > 100:
            del recent[:50]
        yield prog


def t_loop_jobs(seed: int) -> Iterator[Prog]:
    """t-loops: count_t loops of 2k-8k iterations (three jobs in four)
    and factT loops of 500-1400 iterations.  Half of each carry seeded
    block constants, so every such component is new; the other half
    repeat the seed's one component."""
    rng = random.Random(f"t-loops:{seed}")
    offset = rng.random()
    same_start, same_c = rng.randint(0, 9999), rng.randint(1, 9)
    i = 0
    while True:
        # Count loops dominate the mix so that the latency quantiles the
        # benchmark reports fall inside one continuous size range rather
        # than on the gap between the two loop shapes.
        for slot in rng.sample(range(8), 8):
            fresh = slot % 2 == 0
            if slot < 6:
                n = _spread(i, offset, 2000, 8000)
                start = rng.randint(0, 999_999) if fresh else same_start
                yield Prog("run", apply(count_t(start), n), str(start + n),
                           "count-t" if fresh else "count-t-same")
                i += 1
            else:
                # factT past ~1600 iterations halts on an int wider than
                # Python's 4300-digit str() limit, which the machine's
                # halt event trips over, so its loops stop at 1400.
                n = _spread(i, offset, 500, 1400)
                c = rng.randint(1, 999_999) if fresh else same_c
                yield Prog("run", apply(fig17_fact_t(c), n),
                           str(c * math.factorial(n)),
                           "fact-t" if fresh else "fact-t-same")


#: compiled-f's mix per cycle of 20 jobs: closed pipelines, then factF
#: applied to n = 2, 3, 4, 5.  Each latency quantile the benchmark
#: reports lands inside one of these groups, not on a boundary between
#: two: p50 among n = 2, p90 and p99 among n = 5.
_COMPILED_F_CYCLE = ("pipe",) * 8 + (2,) * 4 + (3,) * 3 + (4,) * 2 + (5,) * 3


def compiled_f_jobs(seed: int) -> Iterator[Prog]:
    """compiled-f: F terms for the general-tier compiler.  Boundary-heavy
    Fig 17 factF-shaped recursions with a seeded base case, applied to
    n = 2..5, and boundary-light closed compose/twice pipelines.  About a
    quarter repeat an earlier term, so the compile cache is used."""
    rng = random.Random(f"compiled-f:{seed}")
    facts: List[int] = []                       # factF base cases used
    pipes: List[Tuple[str, str, int]] = []      # (family, term, answer)
    while True:
        for slot in rng.sample(_COMPILED_F_CYCLE, len(_COMPILED_F_CYCLE)):
            repeat = rng.random() < 0.25
            if slot != "pipe":
                if repeat and facts:
                    c = rng.choice(facts)
                else:
                    repeat = False
                    c = rng.randint(1, 9999)
                    facts.append(c)
                yield Prog("run", fig17_fact_f(c),
                           str(c * math.factorial(slot)), "fact-f",
                           arg=slot, repeat=repeat)
            elif repeat and pipes:
                family, term, answer = rng.choice(pipes)
                yield Prog("run", term, str(answer), family, repeat=True)
            else:
                a, b, k = (rng.randint(1, 999), rng.randint(2, 99),
                           rng.randint(0, 999))
                if rng.random() < 0.5:
                    family, term, answer = "compose", compose(a, b, k), \
                        k * b + a
                else:
                    family, term, answer = "twice", twice(a, k), k + 2 * a
                pipes.append((family, term, answer))
                yield Prog("run", term, str(answer), family)


# Warm-up inputs: same shapes as the corpora, constants outside their
# ranges, so warming up never pre-fills a cache entry the timed run uses.
WARMUP_SERVE = (
    Prog("run", apply(count_t(10**7), 10), str(10**7 + 10), "count-t"),
    Prog("typecheck", apply(fig16_one_block(1000, 1000), 1), "int",
         "fig16-one"),
)
WARMUP_T_LOOP = Prog("run", apply(count_t(10**7), 10), str(10**7 + 10),
                     "count-t")
WARMUP_COMPILED_F = Prog("run", fig17_fact_f(10**5), str(2 * 10**5),
                         "fact-f", arg=2)
