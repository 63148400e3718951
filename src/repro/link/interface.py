"""Component interfaces and the link-time signature checker.

Every separately-compiled (or hand-written) component exports one named
value at one F type, and imports the components it was compiled against
as free variables with declared types.  A :class:`ComponentInterface`
records exactly that -- name, export type, import typing, tier -- plus
the artifact's content digest, and is all the linker ever looks at: the
component *body* was typechecked when it was built (by the compiler's
translation validation or by ``check_ft_expr`` for hand-written FT
terms), so linking re-checks **signatures only**, never bodies.

Import/export compatibility is checked at two levels:

1. **F equality** -- the provider's export type is alpha-equal to the
   type the consumer was compiled against (:func:`ftype_equal`).
2. **TAL calling convention** -- failing that, both types are pushed
   through the boundary type translation (paper Fig 9) and compared as
   T types, with *register-file width subtyping* on code types
   (:mod:`repro.tal.subtyping`): the provider's entry code may demand
   fewer registers than the consumer's call site supplies, exactly as
   T's jump rule allows.  This admits, e.g., a stack-modifying arrow
   with empty prefixes where a plain arrow is required -- distinct F
   types with identical calling conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import LinkError
from repro.f.syntax import FType, ftype_equal
from repro.ft.translate import type_translation
from repro.tal.equality import types_equal
from repro.tal.subtyping import is_regfile_subtype
from repro.tal.syntax import CodeType, RegFileTy, TalType, TBox

__all__ = [
    "ComponentInterface", "check_import", "export_code_type",
    "imports_compatible",
]


@dataclass(frozen=True)
class ComponentInterface:
    """The linkable surface of one component.

    ``imports`` is the free-variable typing the component was built
    against (name, F type), in name order; ``digest`` is the content
    address of the stored artifact; ``tier`` is ``general`` for compiled
    components or ``handwritten`` for FT terms taken as-is.
    """

    name: str
    ty: FType
    imports: Tuple[Tuple[str, FType], ...] = ()
    digest: str = ""
    tier: str = "general"

    def __post_init__(self) -> None:
        object.__setattr__(self, "imports",
                           tuple(sorted(self.imports,
                                        key=lambda item: item[0])))

    def __str__(self) -> str:
        needs = ", ".join(f"{n}: {t}" for n, t in self.imports)
        prefix = f"{{{needs}}} => " if needs else ""
        return f"{self.name} : {prefix}{self.ty}"


def export_code_type(ty: FType) -> Optional[CodeType]:
    """The TAL entry code type of an arrow export (the type a consumer's
    generated call site jumps to), or ``None`` for non-code exports."""
    translated = type_translation(ty)
    if isinstance(translated, TBox) and isinstance(translated.psi, CodeType):
        return translated.psi
    return None


def _erase_chi(code: CodeType) -> CodeType:
    return CodeType(code.delta, RegFileTy(), code.sigma, code.q)


def imports_compatible(required: FType, provided: FType) -> bool:
    """May a ``provided`` export satisfy a ``required`` import?"""
    if ftype_equal(provided, required):
        return True
    prov_t: TalType = type_translation(provided)
    req_t: TalType = type_translation(required)
    if types_equal(prov_t, req_t):
        return True
    # Code pointers get T's width subtyping: compare everything but the
    # register files up to alpha-equivalence, then require that every
    # register the provider's entry block demands is supplied by the
    # call sites generated for the required type.
    if (isinstance(prov_t, TBox) and isinstance(prov_t.psi, CodeType)
            and isinstance(req_t, TBox)
            and isinstance(req_t.psi, CodeType)):
        prov_code, req_code = prov_t.psi, req_t.psi
        return (types_equal(TBox(_erase_chi(prov_code)),
                            TBox(_erase_chi(req_code)))
                and is_regfile_subtype(req_code.chi, prov_code.chi))
    return False


def check_import(importer: str, name: str, required: FType,
                 provider: ComponentInterface) -> None:
    """Raise :class:`LinkError` unless ``provider`` can satisfy the
    import ``name : required`` of component ``importer``."""
    if imports_compatible(required, provider.ty):
        return
    raise LinkError(
        f"component {importer!r} imports {name} : {required}, but "
        f"{provider.name!r} exports {provider.ty} (incompatible even "
        f"under the TAL calling convention)",
        stage="interface", subject=name)
