"""Tests for :mod:`repro.link.linker` and :mod:`repro.link.interface`.

The headline property: a >=3-component program -- compiled F components
plus a hand-written T component (Fig 17's factT) --
links into a closed program that typechecks and evaluates to the same
value as the whole-program compile of the inlined source.
"""

import json

import pytest

from repro import obs
from repro.compile import compile_term
from repro.errors import LinkError
from repro.f.syntax import FArrow, FInt, IntE, Lam, Var, ftype_equal
from repro.ft.machine import evaluate_ft
from repro.ft.syntax import FStackArrow
from repro.ft.typecheck import check_ft_expr
from repro.link import (
    ComponentInterface, LinkUnit, build_and_link, check_import,
    collect_labels, imports_compatible, link_components, parse_manifest,
)

ARROW = FArrow((FInt(),), FInt())


def manifest(main="quad (fact 3)"):
    return parse_manifest(json.dumps({
        "components": {
            "double": "lam (x: int). (x + x)",
            "quad": "lam (x: int). double (double x)",
            "fact": {"builtin": "fact-t"},
        },
        "main": main,
    }))


def unit(name, term, ty=ARROW, imports=()):
    return LinkUnit(iface=ComponentInterface(name=name, ty=ty,
                                             imports=imports),
                    term=term)


class TestLinkEndToEnd:
    def test_three_components_link_check_and_run(self):
        report, linked = build_and_link(manifest())
        assert linked.order == ("double", "fact", "quad")
        assert {r.tier for r in report.records} \
            == {"general", "handwritten"}
        ty, _ = check_ft_expr(linked.program)   # closed, well-typed
        assert isinstance(ty, FInt)
        value, _ = evaluate_ft(linked.program)
        assert value == IntE(24)                # quad (3!) = 4 * 6

    def test_differential_vs_whole_program_compile(self):
        """Separate compilation + linking computes exactly what the
        whole-program pipeline computes on the inlined source."""
        _, linked = build_and_link(manifest(main="quad (double 5)"))
        linked_value, _ = evaluate_ft(linked.program)

        whole = ("(lam (x: int). "
                 "((lam (y: int). (y + y)) ((lam (y: int). (y + y)) x)))")
        from repro.surface.parser import parse_fexpr
        from repro.f.syntax import App
        result = compile_term(parse_fexpr(whole))
        whole_value, _ = evaluate_ft(App(result.wrapped, (IntE(10),)))
        assert linked_value == whole_value == IntE(40)

    def test_renamed_labels_globally_unique(self):
        _, linked = build_and_link(manifest())
        labels = collect_labels(linked.program)
        assert linked.labels_renamed == len(labels) > 0
        # Per-unit stems keep provenance readable in traces.
        stems = {label.name.split("$")[0] for label in labels}
        assert stems == {"double", "quad", "fact"}

    def test_linking_is_deterministic(self):
        _, first = build_and_link(manifest())
        _, second = build_and_link(manifest())
        assert first.program == second.program

    def test_metrics(self):
        obs.disable()
        obs.reset()
        obs.enable(record=False)
        try:
            build_and_link(manifest())
            counters = obs.OBS.metrics.snapshot()["counters"]
            assert counters.get("link.link") == 1
            assert counters.get("link.components") == 3
            assert counters.get("link.labels_renamed", 0) > 0
        finally:
            obs.disable()
            obs.reset()


class TestLinkErrors:
    def test_duplicate_export(self):
        units = [unit("f", Lam((("x", FInt()),), Var("x"))),
                 unit("f", Lam((("x", FInt()),), Var("x")))]
        with pytest.raises(LinkError, match="duplicate export"):
            link_components(units, IntE(0))

    def test_unresolved_unit_import(self):
        open_unit = unit("g", Lam((("x", FInt()),),
                                  Var("x")),
                         imports=(("missing", ARROW),))
        with pytest.raises(LinkError, match="no linked component exports"):
            link_components([open_unit], IntE(0))

    def test_unresolved_main_import(self):
        with pytest.raises(LinkError, match="main expression imports"):
            link_components([], Var("nope"))

    def test_import_cycle_rejected(self):
        from repro.f.syntax import App
        a = unit("a", Lam((("x", FInt()),), App(Var("b"), (Var("x"),))),
                 imports=(("b", ARROW),))
        b = unit("b", Lam((("x", FInt()),), App(Var("a"), (Var("x"),))),
                 imports=(("a", ARROW),))
        with pytest.raises(LinkError, match="cycle"):
            link_components([a, b], IntE(0))

    def test_interface_mismatch(self):
        provider = unit("f", Lam((("x", FInt()),), Var("x")))
        consumer = unit(
            "g", Lam((("x", FInt()),), Var("x")),
            imports=(("f", FArrow((FInt(), FInt()), FInt())),))
        with pytest.raises(LinkError, match="interface"):
            link_components([provider, consumer], IntE(0))


class TestInterfaceCompatibility:
    def test_alpha_equal_accepts(self):
        assert imports_compatible(ARROW, FArrow((FInt(),), FInt()))

    def test_arity_mismatch_rejects(self):
        assert not imports_compatible(FArrow((FInt(), FInt()), FInt()),
                                      ARROW)
        assert not imports_compatible(ARROW, FInt())

    def test_tal_convention_admits_empty_prefix_stack_arrow(self):
        """FStackArrow with empty prefixes is a *different F type* from
        FArrow (when compared structurally) but translates to the same
        TAL calling convention, so linking accepts it -- the check is
        genuinely at the T level, not F-syntactic."""
        stacky = FStackArrow((FInt(),), FInt(), (), ())
        assert imports_compatible(ARROW, stacky)
        assert imports_compatible(stacky, ARROW)

    def test_nonempty_prefix_rejected(self):
        from repro.tal.syntax import TInt
        needy = FStackArrow((FInt(),), FInt(), (TInt(),), (TInt(),))
        assert not imports_compatible(ARROW, needy)

    def test_check_import_raises_structured(self):
        provider = ComponentInterface(name="p", ty=FInt())
        with pytest.raises(LinkError) as err:
            check_import("consumer", "p", ARROW, provider)
        assert "interface" in str(err.value)
        assert "consumer" in str(err.value)

    def test_interface_str_and_import_sorting(self):
        iface = ComponentInterface(
            name="g", ty=ARROW,
            imports=(("z", ARROW), ("a", ARROW)))
        assert [n for n, _ in iface.imports] == ["a", "z"]
        assert str(iface).startswith("g : {a: ")
