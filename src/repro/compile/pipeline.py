"""The compilation pipeline: eligibility, passes, cache, wrapping.

One compiler covers all of F (higher-order functions, multi-argument
lambdas, tuples, ``fold``/``unfold``, ``unit``, ``if0``): closure
conversion (:mod:`repro.compile.closure`), then stack-machine code
generation (:mod:`repro.compile.codegen`), then
:func:`tal.optimize.optimize_component` as a post-pass.

Every compilation is wrapped exactly like the paper's examples:
``lam(x...). (arrow FT component) x...`` for lambdas, ``tau FT
component`` for other closed terms -- so a compiled term substitutes
for its source anywhere in an F program.

The JIT (paper sec 6) is a policy on top: :func:`is_jit_eligible` picks
the first-order all-``int`` lambdas it swaps for compiled code, and
:func:`jit_rewrite` walks a program doing the swap.  The guarded JIT
(:mod:`repro.resilience.safety_net`) runs the same walk with fault
handling.

Instrumentation: a ``compile.pipeline`` span wraps the run with child
spans per pass; ``compile.*`` counters count compilations, hoisted code
definitions, emitted blocks, and cache traffic (see
``docs/observability.md``).

Results are memoized in :data:`COMPILE_CACHE`, one
:class:`repro.caching.LRUCache` keyed on (source term, free-variable
typing, optimize) -- sound because the per-compilation
:class:`~repro.compile.names.NameSupply` makes output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import CompileError, FunTALError
from repro.obs.events import OBS
from repro.resilience.chaos import probe
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, Fold, FType, If0, IntE, Lam, Proj,
    TupleE, Unfold, UnitE, Var,
)
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.syntax import Boundary, StackLam
from repro.tal.optimize import optimize_component
from repro.tal.syntax import Component
from repro.compile.closure import ClosProgram, closure_convert
from repro.compile.codegen import generate_expr, generate_function
from repro.compile.names import NameSupply

__all__ = [
    "TIER_GENERAL", "CompilationResult", "COMPILE_CACHE",
    "clear_compile_cache", "is_general_compilable", "compile_term",
    "compile_function", "is_jit_eligible", "jit_rewrite",
]

#: The name every compiled artifact reports as its ``tier`` (link
#: records, ``compile`` output, validation reports).
TIER_GENERAL = "general"

# Structurally identical terms compile to interchangeable components --
# the machine renames heap labels freshly at every load -- and the
# deterministic name supply makes the artifact itself reproducible, so
# entries are safe to content-address downstream (the serve layer does).
COMPILE_CACHE: LRUCache = LRUCache(512, metric_prefix="jit.cache")


def clear_compile_cache() -> None:
    """Drop all memoized compilations (used by tests and benchmarks)."""
    COMPILE_CACHE.clear()


@dataclass(frozen=True)
class CompilationResult:
    """Everything the pipeline produced for one term.

    ``wrapped`` is the drop-in FT replacement for the source term;
    ``component`` the generated T component inside it; ``clos`` the
    closure-conversion IR.
    """

    tier: ClassVar[str] = TIER_GENERAL

    source: FExpr
    ty: FType
    wrapped: FExpr
    component: Component
    clos: Optional[ClosProgram] = None
    free: Tuple[Tuple[str, FType], ...] = ()

    def pretty_ir(self) -> str:
        if self.clos is None:
            return "(no closure IR recorded)"
        return self.clos.pretty()

    def block_count(self) -> int:
        return len(self.component.heap)


def is_general_compilable(e: FExpr,
                          gamma: Optional[Dict[str, FType]] = None) -> bool:
    """Does the compiler cover ``e``?  Any core-F term that typechecks
    under ``gamma`` (no FT-only forms, no stack lambdas, no free
    variables beyond ``gamma``)."""
    if isinstance(e, StackLam):
        return False
    try:
        f_typecheck(e, dict(gamma) if gamma else None)
    except FunTALError:
        return False
    except RecursionError:  # pathologically deep terms: just decline
        return False
    return True


def _wrap(e: FExpr, ty: FType, comp: Component) -> FExpr:
    """The paper-shaped wrapper making a component a drop-in replacement."""
    if isinstance(e, Lam):
        assert isinstance(ty, FArrow)
        return Lam(e.params,
                   App(Boundary(ty, comp),
                       tuple(Var(x) for x, _ in e.params)))
    return Boundary(ty, comp)


def _compile_uncached(e: FExpr, gamma: Optional[Dict[str, FType]],
                      optimize: bool) -> CompilationResult:
    supply = NameSupply()
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
    return CompilationResult(e, ty, _wrap(e, ty, comp), comp,
                             clos=prog, free=prog.free)


def compile_term(e: FExpr, gamma: Optional[Dict[str, FType]] = None,
                 optimize: bool = True) -> CompilationResult:
    """Compile ``e`` (memoized).

    Raises :class:`~repro.errors.CompileError` when ``e`` is not a
    core-F term that typechecks under ``gamma``.
    """
    if not is_general_compilable(e, gamma):
        raise CompileError(
            "the compiler does not cover this term (core F only: no FT "
            "boundaries, stack lambdas or unbound variables)",
            judgment="compile.eligibility", subject=str(e))
    gamma_key = tuple(sorted((gamma or {}).items()))
    key = (e, gamma_key, optimize)
    cached = COMPILE_CACHE.get(key)
    if cached is not None:
        return cached
    arity = len(e.params) if isinstance(e, Lam) else 0
    probe("jit.compile", f"arity {arity}")
    with OBS.span("compile.pipeline", "compile", arity=arity):
        result = _compile_uncached(e, gamma, optimize)
    if OBS.enabled:
        # "jit.compile" is the historical name for "a term was actually
        # compiled (cache miss)"; dashboards and tests key on it, so it
        # keeps counting alongside the namespaced counter.
        OBS.metrics.inc("jit.compile")
        OBS.metrics.inc("compile.compile")
    COMPILE_CACHE.put(key, result)
    return result


def compile_function(lam: Lam,
                     gamma: Optional[Dict[str, FType]] = None,
                     optimize: bool = True) -> CompilationResult:
    """Compile a lambda (the JIT's unit of work)."""
    if not isinstance(lam, Lam) or isinstance(lam, StackLam):
        raise CompileError("only plain lambdas can be compiled as "
                           "functions", judgment="compile.eligibility",
                           subject=str(lam))
    return compile_term(lam, gamma, optimize)


def is_jit_eligible(e: FExpr) -> bool:
    """The JIT's policy: does it swap ``e`` for compiled code?  Only
    first-order lambdas whose parameters are all ``int`` and whose
    bodies are built from literals, parameters, arithmetic and
    ``if0``."""
    if not isinstance(e, Lam) or isinstance(e, StackLam):
        return False
    if not e.params or not all(isinstance(t, FInt) for _, t in e.params):
        return False
    scope = {x for x, _ in e.params}

    def body_ok(b: FExpr) -> bool:
        if isinstance(b, IntE):
            return True
        if isinstance(b, Var):
            return b.name in scope
        if isinstance(b, BinOp):
            return body_ok(b.left) and body_ok(b.right)
        if isinstance(b, If0):
            return body_ok(b.cond) and body_ok(b.then) and body_ok(b.els)
        return False

    return body_ok(e.body)


def jit_rewrite(e: FExpr,
                jit: Optional[Callable[[Lam], Optional[FExpr]]] = None
                ) -> FExpr:
    """Replace every JIT-eligible lambda in ``e`` -- the paper's picture
    of a JIT moving a program between multi-language configurations.

    ``jit`` maps an eligible lambda to its replacement, or to ``None``
    to leave it interpreted; the default swaps in
    :func:`compile_function`'s drop-in wrapper."""
    if jit is None:
        def jit(lam: Lam) -> FExpr:
            return compile_function(lam).wrapped

    def walk(e: FExpr) -> FExpr:
        if is_jit_eligible(e):
            replacement = jit(e)
            return e if replacement is None else replacement
        if isinstance(e, (Var, IntE, UnitE)):
            return e
        if isinstance(e, BinOp):
            return BinOp(e.op, walk(e.left), walk(e.right))
        if isinstance(e, If0):
            return If0(walk(e.cond), walk(e.then), walk(e.els))
        if isinstance(e, StackLam):
            return StackLam(e.params, walk(e.body), e.phi_in, e.phi_out)
        if isinstance(e, Lam):
            return Lam(e.params, walk(e.body))
        if isinstance(e, App):
            return App(walk(e.fn), tuple(walk(a) for a in e.args))
        if isinstance(e, Fold):
            return Fold(e.ann, walk(e.body))
        if isinstance(e, Unfold):
            return Unfold(walk(e.body))
        if isinstance(e, TupleE):
            return TupleE(tuple(walk(x) for x in e.items))
        if isinstance(e, Proj):
            return Proj(e.index, walk(e.body))
        return e  # boundaries and other leaves are left untouched

    return walk(e)
