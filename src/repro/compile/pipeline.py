"""The tiered compilation pipeline: eligibility, passes, cache, wrapping.

Two tiers share one entry point and one memoization cache:

* ``arith`` -- the historical JIT fragment (first-order, all-``int``
  lambdas), compiled by :mod:`repro.compile.arith` with byte-identical
  output shape to the old ``repro.jit.compiler``;
* ``general`` -- all of F (higher-order functions, multi-argument
  lambdas, tuples, ``fold``/``unfold``, ``unit``, ``if0``), compiled by
  closure conversion (:mod:`repro.compile.closure`) then stack-machine
  code generation (:mod:`repro.compile.codegen`) with
  :func:`tal.optimize.optimize_component` as a post-pass.

Every compilation is wrapped exactly like the paper's examples:
``lam(x...). (arrow FT component) x...`` for lambdas, ``tau FT
component`` for other closed terms -- so a compiled term substitutes
for its source anywhere in an F program.

Instrumentation: a ``compile.pipeline`` span wraps the run with child
spans per pass; ``compile.*`` counters count compilations, hoisted code
definitions, emitted blocks, and cache traffic (see
``docs/observability.md``).

Results are memoized in :data:`COMPILE_CACHE`, one
:class:`repro.caching.LRUCache` shared by both tiers and by the legacy
:mod:`repro.jit.compiler` facade, keyed on (tier, source term, free-
variable typing) -- sound because the per-compilation
:class:`~repro.compile.names.NameSupply` makes output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import CompileError, FunTALError
from repro.obs.events import OBS
from repro.resilience.chaos import probe
from repro.f.syntax import App, FArrow, FExpr, FInt, FType, Lam, Var
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.syntax import Boundary, StackLam
from repro.tal.optimize import optimize_component
from repro.tal.syntax import Component
from repro.compile.arith import compile_arith, is_arith_compilable
from repro.compile.closure import ClosProgram, closure_convert
from repro.compile.codegen import generate_expr, generate_function
from repro.compile.names import NameSupply

__all__ = [
    "TIER_ARITH", "TIER_GENERAL", "ALL_TIERS", "CompilationResult",
    "COMPILE_CACHE", "clear_compile_cache", "eligible_tier",
    "is_general_compilable", "compile_term", "compile_function",
]

TIER_ARITH = "arith"
TIER_GENERAL = "general"
ALL_TIERS: Tuple[str, ...] = (TIER_ARITH, TIER_GENERAL)

# One memoization cache for both tiers (and the jit facade).  Structurally
# identical terms compile to interchangeable components -- the machine
# renames heap labels freshly at every load -- and the deterministic name
# supply makes the artifact itself reproducible, so entries are safe to
# content-address downstream (the serve layer does).
COMPILE_CACHE: LRUCache = LRUCache(512, metric_prefix="jit.cache")


def clear_compile_cache() -> None:
    """Drop all memoized compilations (used by tests and benchmarks)."""
    COMPILE_CACHE.clear()


@dataclass(frozen=True)
class CompilationResult:
    """Everything the pipeline produced for one term.

    ``wrapped`` is the drop-in FT replacement for the source term;
    ``component`` the generated T component inside it; ``clos`` the
    closure-conversion IR (``None`` for the arith tier, which has no
    middle pass).
    """

    source: FExpr
    tier: str
    ty: FType
    wrapped: FExpr
    component: Component
    clos: Optional[ClosProgram] = None
    free: Tuple[Tuple[str, FType], ...] = ()

    def pretty_ir(self) -> str:
        if self.clos is None:
            return "(arith tier: direct code generation, no closure IR)"
        return self.clos.pretty()

    def block_count(self) -> int:
        return len(self.component.heap)


def is_general_compilable(e: FExpr,
                          gamma: Optional[Dict[str, FType]] = None) -> bool:
    """Does ``e`` lie in the general tier's fragment?  Any core-F term
    that typechecks under ``gamma`` (no FT-only forms, no stack lambdas,
    no free variables beyond ``gamma``)."""
    if isinstance(e, StackLam):
        return False
    try:
        f_typecheck(e, dict(gamma) if gamma else None)
    except FunTALError:
        return False
    except RecursionError:  # pathologically deep terms: just decline
        return False
    return True


def eligible_tier(e: FExpr, gamma: Optional[Dict[str, FType]] = None,
                  tiers: Tuple[str, ...] = ALL_TIERS) -> Optional[str]:
    """Pick the cheapest enabled tier that covers ``e`` (or ``None``)."""
    if TIER_ARITH in tiers and is_arith_compilable(e):
        return TIER_ARITH
    if TIER_GENERAL in tiers and is_general_compilable(e, gamma):
        return TIER_GENERAL
    return None


def _wrap(e: FExpr, ty: FType, comp: Component) -> FExpr:
    """The paper-shaped wrapper making a component a drop-in replacement."""
    if isinstance(e, Lam):
        assert isinstance(ty, FArrow)
        return Lam(e.params,
                   App(Boundary(ty, comp),
                       tuple(Var(x) for x, _ in e.params)))
    return Boundary(ty, comp)


def _compile_uncached(e: FExpr, tier: str,
                      gamma: Optional[Dict[str, FType]],
                      optimize: bool) -> CompilationResult:
    supply = NameSupply()
    if tier == TIER_ARITH:
        comp = compile_arith(e, supply)  # type: ignore[arg-type]
        ty = FArrow(tuple(t for _, t in e.params), FInt())
        return CompilationResult(e, tier, ty, _wrap(e, ty, comp), comp)
    ty = f_typecheck(e, dict(gamma) if gamma else None)
    with OBS.span("compile.closure", "compile"):
        prog = closure_convert(e, gamma, supply)
    with OBS.span("compile.codegen", "compile"):
        if prog.main_code is not None:
            comp = generate_function(prog, supply)
        else:
            comp = generate_expr(prog, supply)
    if optimize:
        with OBS.span("compile.optimize", "compile"):
            comp = optimize_component(comp)
    if OBS.enabled:
        OBS.metrics.inc("compile.defs", len(prog.defs))
        OBS.metrics.inc("compile.blocks", len(comp.heap))
    return CompilationResult(e, tier, ty, _wrap(e, ty, comp), comp,
                             clos=prog, free=prog.free)


def compile_term(e: FExpr, gamma: Optional[Dict[str, FType]] = None,
                 tiers: Tuple[str, ...] = ALL_TIERS,
                 optimize: bool = True) -> CompilationResult:
    """Compile ``e`` through the best enabled tier (memoized).

    Raises :class:`~repro.errors.CompileError` when no enabled tier
    covers ``e``.
    """
    tier = eligible_tier(e, gamma, tiers)
    if tier is None:
        raise CompileError(
            f"no enabled tier ({', '.join(tiers)}) covers this term",
            judgment="compile.eligibility", subject=str(e))
    gamma_key = tuple(sorted((gamma or {}).items()))
    key = (tier, e, gamma_key, optimize)
    cached = COMPILE_CACHE.get(key)
    if cached is not None:
        return cached
    arity = len(e.params) if isinstance(e, Lam) else 0
    probe("jit.compile", f"tier {tier} arity {arity}")
    with OBS.span("compile.pipeline", "compile", tier=tier, arity=arity):
        result = _compile_uncached(e, tier, gamma, optimize)
    if OBS.enabled:
        # "jit.compile" is the historical name for "a lambda was actually
        # compiled (cache miss)"; dashboards and tests key on it, so both
        # tiers keep feeding it alongside the namespaced counters.
        OBS.metrics.inc("jit.compile")
        OBS.metrics.inc("compile.compile")
        OBS.metrics.inc(f"compile.tier.{tier}")
    COMPILE_CACHE.put(key, result)
    return result


def compile_function(lam: Lam,
                     gamma: Optional[Dict[str, FType]] = None,
                     tiers: Tuple[str, ...] = ALL_TIERS,
                     optimize: bool = True) -> CompilationResult:
    """Compile a lambda (the JIT's unit of work)."""
    if not isinstance(lam, Lam) or isinstance(lam, StackLam):
        raise CompileError("only plain lambdas can be compiled as "
                           "functions", judgment="compile.eligibility",
                           subject=str(lam))
    return compile_term(lam, gamma, tiers, optimize)
