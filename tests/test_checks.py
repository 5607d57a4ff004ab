import pytest

from edgebetti import checks
from edgebetti.betti import pd_reg
from edgebetti.checks import (
    CheckReport,
    check_characterizations,
    check_cone_formula,
    check_disjoint_union_formulas,
    check_global_bounds,
    check_join_regularity,
)
from edgebetti.families import second_max_pd_witness
from edgebetti.graphs import (
    complete,
    cycle,
    disjoint_union,
    isolated,
    join,
    path,
)


class TestCheckReport:
    def test_failure_needs_counterexample(self):
        with pytest.raises(ValueError):
            CheckReport("x", "pop", False, None)

    def test_from_failures(self):
        assert CheckReport.from_failures("x", "pop", [], {}).passed
        rep = CheckReport.from_failures("x", "pop", [{"a": 1}, {"b": 2}], {"k": 1})
        assert not rep.passed and rep.counterexample == {"a": 1}
        assert rep.details == {"k": 1}

    def test_roundtrip(self):
        rep = CheckReport("x", "pop", True, None, {"k": 1})
        assert rep.to_json() == {
            "name": "x",
            "population": "pop",
            "passed": True,
            "details": {"k": 1},
        }


def with_pair(g):
    """A graph and the engine's (pd, reg) of it, as exhaustive runs pass them."""
    return g, pd_reg(g)


class TestGlobalBounds:
    def test_examples(self):
        assert check_global_bounds(*with_pair(complete(5))).passed
        assert check_global_bounds(*with_pair(path(6))).passed
        assert check_global_bounds(*with_pair(cycle(5))).passed

    def test_isolated_rejected(self):
        with pytest.raises(ValueError):
            check_global_bounds(*with_pair(disjoint_union([path(2), isolated(1)])))

    def test_judges_the_pair_it_is_given(self):
        # K_5 has (pd, reg) = (3, 2); reg 3 breaks reg2_iff_complete.
        rep = check_global_bounds(complete(5), (3, 3))
        assert not rep.passed
        assert "reg2_iff_complete" in rep.counterexample["failed"]


class TestCompositionFormulas:
    def test_disjoint_union_example(self):
        rep = check_disjoint_union_formulas([complete(2), complete(2)])
        assert rep.passed
        assert pd_reg(disjoint_union([complete(2), complete(2)])) == (1, 3)

    def test_union_rejects_edgeless_part(self):
        with pytest.raises(ValueError):
            check_disjoint_union_formulas([complete(2), isolated(2)])

    def test_join_example(self):
        assert check_join_regularity(path(3), isolated(2)).passed

    def test_join_rejects_two_completes(self):
        with pytest.raises(ValueError):
            check_join_regularity(complete(2), complete(3))

    def test_cone_over_disconnected(self):
        base = disjoint_union([complete(3), path(2)])
        rep = check_cone_formula(base)
        assert rep.passed
        # the cone realizes max(pd + 2, n - 3) = 4
        assert pd_reg(join(base, isolated(1))).pd == 4

    def test_cone_rejects_complete_base(self):
        with pytest.raises(ValueError):
            check_cone_formula(complete(3))

    def test_composition_checks_over_f2(self):
        parts = [path(3), complete(2)]
        assert check_disjoint_union_formulas(parts, field_tag="f2").passed
        assert check_join_regularity(path(3), isolated(2), field_tag="f2").passed
        assert check_cone_formula(path(3), field_tag="f2").passed


class TestCharacterizations:
    def test_examples(self):
        assert check_characterizations(*with_pair(join(path(3), isolated(2)))).passed
        assert check_characterizations(*with_pair(second_max_pd_witness(6, 4))).passed
        assert check_characterizations(*with_pair(cycle(6))).passed

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            check_characterizations(*with_pair(complete(4)))


def test_class_checkers_do_not_recompute_their_class(atlas_for, monkeypatch):
    records = atlas_for(5).records

    def refuse(*args, **kwargs):
        raise AssertionError("a class checker recomputed its class")

    monkeypatch.setattr(checks, "pd_reg", refuse)
    for rec in records:
        pair = (rec.pd, rec.reg)
        assert check_global_bounds(rec.graph, pair).passed
        assert check_characterizations(rec.graph, pair).passed


def test_reports_are_deterministic():
    a = check_characterizations(*with_pair(second_max_pd_witness(6, 3)))
    b = check_characterizations(*with_pair(second_max_pd_witness(6, 3)))
    assert a == b
