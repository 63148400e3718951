"""The JIT's compiler entry points, now a facade over :mod:`repro.compile`.

Historically this module *was* the compiler: a stack-machine emitter for
first-order arithmetic lambdas.  That emitter lives on verbatim as the
``arith`` tier of the tiered pipeline (:mod:`repro.compile.arith`), next
to the ``general`` tier that covers all of F via closure conversion.
This module keeps the JIT-facing surface stable:

* :func:`is_compilable` / :func:`compile_function` speak the historical
  contract -- the arithmetic fragment, the same multi-block output shape
  (Fig 16-style ``if0`` splitting), the same ``CompileError`` on
  anything outside it -- and tests lock that shape in differentially
  against :func:`repro.compile.arith.compile_arith`;
* :func:`jit_rewrite` walks a whole program replacing every eligible
  lambda, defaulting to the arithmetic tier (the historical JIT
  behaviour).  Passing ``tiers=ALL_TIERS`` lets the sweep also compile
  closed higher-order lambdas through the general tier; open lambdas
  under enclosing binders simply fail eligibility and are left
  interpreted, so the walk needs no environment threading.
* the memoization cache (:data:`COMPILE_CACHE`) is the pipeline's: one
  LRU shared by every tier and every entry point, with the historical
  ``jit.cache.*`` metric names.

The correctness obligation ``E[e_S] ~ E[FT e_T]`` is discharged per
artifact by translation validation (:mod:`repro.compile.validate`) and
boundedly by :mod:`repro.equiv` in the tests and benchmarks.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import CompileError
from repro.f.syntax import (
    App, BinOp, FExpr, Fold, If0, IntE, Lam, Proj, TupleE, Unfold, UnitE,
    Var,
)
from repro.ft.syntax import StackLam
from repro.compile.arith import is_arith_compilable
from repro.compile.pipeline import (
    ALL_TIERS, COMPILE_CACHE, TIER_ARITH, TIER_GENERAL, clear_compile_cache,
    compile_term, eligible_tier,
)
from repro.compile.pipeline import compile_function as _pipeline_compile

__all__ = ["is_compilable", "compile_function", "jit_rewrite",
           "CompileError", "clear_compile_cache", "COMPILE_CACHE",
           "ALL_TIERS", "TIER_ARITH", "TIER_GENERAL"]

#: The historical default: the JIT only rewrites the arithmetic fragment
#: unless a caller opts into the general tier.
JIT_TIERS: Tuple[str, ...] = (TIER_ARITH,)


def is_compilable(e: FExpr) -> bool:
    """Is ``e`` a lambda in the (historical) compilable fragment?  All
    parameters ``int``, body built from literals, parameters,
    arithmetic, and ``if0``."""
    return is_arith_compilable(e)


def compile_function(lam: Lam,
                     tiers: Tuple[str, ...] = JIT_TIERS) -> Lam:
    """Compile an eligible lambda to its FT replacement (memoized).

    Returns ``lam(x...). ((..)->.. FT component) x...``, a drop-in
    replacement for the source lambda.  With the default ``tiers`` this
    is exactly the historical JIT: arithmetic lambdas only, the same
    component shape, :class:`CompileError` for anything else."""
    return _pipeline_compile(lam, None, tiers).wrapped


def jit_rewrite(e: FExpr,
                tiers: Tuple[str, ...] = JIT_TIERS) -> FExpr:
    """Replace every eligible lambda in ``e`` by its compiled version --
    the paper's picture of a JIT moving a program between multi-language
    configurations.  ``tiers`` selects eligibility: the default is the
    historical arithmetic fragment; include ``TIER_GENERAL`` to also
    compile closed higher-order lambdas whole."""
    if isinstance(e, Lam) and not isinstance(e, StackLam) \
            and eligible_tier(e, None, tiers) is not None:
        return compile_term(e, None, tiers).wrapped
    if isinstance(e, (Var, IntE, UnitE)):
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, jit_rewrite(e.left, tiers),
                     jit_rewrite(e.right, tiers))
    if isinstance(e, If0):
        return If0(jit_rewrite(e.cond, tiers), jit_rewrite(e.then, tiers),
                   jit_rewrite(e.els, tiers))
    if isinstance(e, StackLam):
        return StackLam(e.params, jit_rewrite(e.body, tiers),
                        e.phi_in, e.phi_out)
    if isinstance(e, Lam):
        return Lam(e.params, jit_rewrite(e.body, tiers))
    if isinstance(e, App):
        return App(jit_rewrite(e.fn, tiers),
                   tuple(jit_rewrite(a, tiers) for a in e.args))
    if isinstance(e, Fold):
        return Fold(e.ann, jit_rewrite(e.body, tiers))
    if isinstance(e, Unfold):
        return Unfold(jit_rewrite(e.body, tiers))
    if isinstance(e, TupleE):
        return TupleE(tuple(jit_rewrite(x, tiers) for x in e.items))
    if isinstance(e, Proj):
        return Proj(e.index, jit_rewrite(e.body, tiers))
    return e  # boundaries and other leaves are left untouched
