import itertools

import pytest

from edgebetti.atlas import enumerate_graphs
from edgebetti.betti import pd_reg
from edgebetti.families import (
    RealizeError,
    classify_second_max_pd_shape,
    connected_pdreg_closed_form,
    find_covering_pair,
    is_max_pd_shape,
    is_reg3_shape,
    is_two_clique_union,
    max_pd_witness,
    near_max_reg_witness,
    pdreg_closed_form,
    realize,
    reg3_witness,
    second_max_pd_witness,
)
from edgebetti.graphs import (
    canon_key,
    complete,
    cone,
    cycle,
    disjoint_union,
    from_edges,
    induced_subgraph,
    is_complete,
    isolated,
    join,
    path,
)


class TestMaxPdFamily:
    def test_examples(self):
        assert pd_reg(max_pd_witness(5, 3)) == (5, 3)
        assert pd_reg(max_pd_witness(6, 4)) == (7, 4)
        assert pd_reg(max_pd_witness(7, 5)) == (9, 5)

    def test_structure(self):
        g = max_pd_witness(6, 3)
        assert canon_key(g) == canon_key(join(disjoint_union([path(3), isolated(1)]), isolated(2)))
        assert is_max_pd_shape(g)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            max_pd_witness(4, 3)
        with pytest.raises(ValueError):
            max_pd_witness(6, 5)


class TestSecondMaxPdFamily:
    def test_triple_apex(self):
        assert pd_reg(second_max_pd_witness(7, 4)) == (8, 4)

    def test_degenerate_corner_uses_edge_point_join(self):
        # P3 * 3K1 at n = 6 collapses to a two-universal join, so the family
        # switches to K3 * (K1 + K2) there.
        g = second_max_pd_witness(6, 3)
        assert canon_key(g) == canon_key(
            join(complete(3), disjoint_union([isolated(1), complete(2)]))
        )
        assert pd_reg(g) == (6, 3)

    def test_top_regularity_member(self):
        g = second_max_pd_witness(6, 4)
        assert pd_reg(g) == (6, 4)
        assert find_covering_pair(g) is not None

    def test_always_a_second_max_shape(self):
        for n, r in [(6, 3), (6, 4), (7, 3), (7, 4), (7, 5)]:
            matches, reason = classify_second_max_pd_shape(second_max_pd_witness(n, r))
            assert matches, (n, r, reason)


class TestReg3Family:
    def test_base_cases(self):
        assert canon_key(reg3_witness(4, 1)) == canon_key(
            disjoint_union([path(2), path(2)])
        )
        assert pd_reg(reg3_witness(4, 2)) == (2, 3)
        assert pd_reg(reg3_witness(4, 3)) == (3, 3)

    def test_cone_recursion_matches_catalog(self):
        g = reg3_witness(5, 4)
        expect = cone(cone(disjoint_union([path(2), isolated(1)])))
        assert canon_key(g) == canon_key(expect)
        assert pd_reg(g) == (4, 3)

    def test_two_cliques(self):
        assert canon_key(reg3_witness(6, 3)) == canon_key(
            disjoint_union([complete(2), complete(4)])
        )

    def test_whole_range_at_six(self):
        for p in range(3, 8):
            assert pd_reg(reg3_witness(6, p)) == (p, 3)


class TestNearMaxRegFamily:
    def test_examples(self):
        assert pd_reg(near_max_reg_witness(6, 2)) == (2, 4)
        g = near_max_reg_witness(6, 3)
        assert canon_key(g) == canon_key(disjoint_union([complete(3), path(3)]))
        assert pd_reg(g) == (3, 4)
        assert pd_reg(near_max_reg_witness(6, 7)) == (7, 4)

    def test_fan_with_full_base_is_a_two_universal_join(self):
        g = near_max_reg_witness(6, 7)  # m = 1
        assert canon_key(g) == canon_key(join(path(4), isolated(2)))

    def test_whole_range_at_six(self):
        for p in range(2, 8):
            assert pd_reg(near_max_reg_witness(6, p)) == (p, 4)


class TestShapeDetectors:
    def test_covering_pair_examples(self):
        assert find_covering_pair(cycle(4)) is None
        assert find_covering_pair(complete(4)) is None
        w = find_covering_pair(second_max_pd_witness(7, 5))
        assert w is not None
        assert not set(w.only_u) & set(w.only_v)

    def test_excluded_before_classified(self):
        matches, reason = classify_second_max_pd_shape(join(path(3), isolated(3)))
        assert not matches and reason == "excluded_two_universal"

    def test_triple_apex_detection(self):
        matches, reason = classify_second_max_pd_shape(join(path(4), isolated(3)))
        assert matches and reason == "universal_triple"

    def _brute_universal_independent(self, g, size):
        hits = []
        for sub in itertools.combinations(g.vertices, size):
            rest = [v for v in g.vertices if v not in sub]
            if not rest:
                continue
            if any(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                continue
            if all(g.has_edge(a, v) for a in sub for v in rest):
                hits.append(sub)
        return hits

    def _brute_second_max(self, g):
        if self._brute_universal_independent(g, 2):
            return False
        for sub in itertools.combinations(g.vertices, 3):
            rest = [v for v in g.vertices if v not in sub]
            if not rest or not all(
                g.has_edge(a, v) for a in sub for v in rest
            ):
                continue
            inner = sum(
                g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)
            )
            if inner in (0, 1):
                return True
        for u, v in itertools.combinations(g.vertices, 2):
            if g.has_edge(u, v):
                continue
            t = set(g.vertices) - {u, v}
            nu, nv = set(g.neighbors(u)), set(g.neighbors(v))
            if nu | nv != t:
                continue
            only_u, only_v = nu - nv, nv - nu
            if not only_u or not only_v:
                continue
            if all(g.has_edge(a, b) for a in only_u for b in only_v):
                return True
        return False

    def test_detectors_match_brute_force_exhaustively(self):
        for n in range(3, 7):
            for g in enumerate_graphs(n, dedup=True):
                assert is_max_pd_shape(g) == bool(
                    self._brute_universal_independent(g, 2)
                ), g
                assert classify_second_max_pd_shape(g)[0] == self._brute_second_max(
                    g
                ), g

    def test_reg3_shape_examples(self):
        assert is_two_clique_union(disjoint_union([complete(2), complete(3)]))
        assert not is_two_clique_union(disjoint_union([path(3), complete(3)]))
        assert is_reg3_shape(join(path(2), isolated(2)))
        assert not is_reg3_shape(path(4))


class TestClosedForm:
    def test_small_values(self):
        assert pdreg_closed_form(3) == {(1, 2), (1, 3)}
        assert pdreg_closed_form(5) == {
            (3, 2),
            (3, 5),
            (2, 3),
            (3, 3),
            (4, 3),
            (5, 3),
        }
        six = pdreg_closed_form(6)
        assert six == {(4, 2), (4, 6)} | {(p, 3) for p in range(3, 8)} | {
            (p, 4) for p in range(2, 8)
        }
        assert len(six) == 13

    def test_no_top_slice_from_five_on(self):
        for n in range(5, 10):
            assert all(r != n - 1 for _, r in pdreg_closed_form(n))

    def test_connected_form(self):
        assert connected_pdreg_closed_form(5) == {
            (3, 2),
            (3, 5),
            (3, 3),
            (4, 3),
            (5, 3),
        }

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            pdreg_closed_form(2)


class TestRealize:
    def test_catalog_pair(self):
        cert = realize(5, 2, 3)
        assert canon_key(cert.graph) == canon_key(
            disjoint_union([complete(2), complete(3)])
        )

    def test_max_pd_witness_is_dispatched(self):
        cert = realize(6, 7, 3)
        assert cert.claimed == (7, 3)
        assert is_max_pd_shape(cert.graph)

    def test_undetermined_slice_refused(self):
        with pytest.raises(RealizeError, match="undetermined"):
            realize(6, 5, 5)
        with pytest.raises(RealizeError, match="undetermined"):
            realize(5, 2, 4)

    def test_unrealizable_pair_refused(self):
        with pytest.raises(RealizeError, match="not a Betti-table size"):
            realize(5, 1, 3)
        with pytest.raises(RealizeError, match="not a Betti-table size"):
            realize(6, 8, 3)

    def test_connected_needs_large_pd(self):
        with pytest.raises(RealizeError, match="connected"):
            realize(5, 2, 3, connected_required=True)

    def test_small_slice_includes_reg_n_minus_1(self):
        # at n = 3 and 4 the closed form legitimately contains reg = n-1
        assert realize(3, 1, 2).claimed == (1, 2)
        assert realize(4, 2, 3).claimed == (2, 3)

    def test_trace_is_informative(self):
        cert = realize(7, 4, 4)
        assert cert.trace[0] == "edge_union"

    def test_top_pd_witness_structure_at_seven(self):
        cert = realize(7, 9, 3, verify=False)
        expect = join(
            disjoint_union([path(3), isolated(2)]), isolated(2)
        )
        assert canon_key(cert.graph) == canon_key(expect)
