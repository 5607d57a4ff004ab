import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
import sympy

from edgebetti.atlas import enumerate_graphs
from edgebetti.betti import _faces_within, betti_table_hochster
from edgebetti.graphs import _bits, complete, from_edges, isolated, path, relabel
from edgebetti.ideals import (
    MonomialIdeal,
    _admissible_masks,
    initial_ideal,
    mark_supersets,
    minimalize,
    x_slot,
    y_slot,
)


def mask(n, xs=(), ys=()):
    m = 0
    for i in xs:
        m |= 1 << x_slot(i)
    for i in ys:
        m |= 1 << y_slot(i, n)
    return m


def interior_path_ideal(g, u, v):
    """Monomials from interior vertices of u-v paths, all x/y splits.

    A path u, u_1, ..., u_s, v with s >= 1 contributes the s+1 monomials
    y_{u_1}..y_{u_t} x_{u_{t+1}}..x_{u_s} for t = 0..s.  The trivial path
    (s = 0) is excluded: it would contribute the unit monomial.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    n = g.n
    masks = []
    stack = []

    def walk(w, visited):
        if g.has_edge(w, v) and stack:
            for t in range(len(stack) + 1):
                masks.append(mask(n, xs=stack[t:], ys=stack[:t]))
        for b in _bits(g.neighbors_mask(w) & ~visited):
            if b + 1 == v:
                continue
            stack.append(b + 1)
            walk(b + 1, visited | (1 << b))
            stack.pop()

    walk(u, (1 << (u - 1)) | (1 << (v - 1)))
    return MonomialIdeal(2 * n, tuple(masks))


def exterior_interval_ideal(g):
    """Brute-force initial ideal: every exterior-interval path, then minimalize.

    For each i < j, every i-j path with distinct vertices whose interior lies
    outside [i, j], chords included, gives x_i y_j times x_v for interior
    v > j and y_v for interior v < i; the divisibility-minimal masks are the
    generators.
    """
    n = g.n
    masks = []

    def walk(u, visited, m, j, allowed):
        row = g.neighbors_mask(u)
        if row >> (j - 1) & 1:
            masks.append(m)
        for b in _bits(row & allowed & ~visited):
            v = b + 1
            slot = x_slot(v) if v > j else y_slot(v, n)
            walk(v, visited | 1 << b, m | 1 << slot, j, allowed)

    for i in g.vertices:
        for j in range(i + 1, n + 1):
            allowed = sum(1 << (v - 1) for v in g.vertices if v < i or v > j)
            walk(i, 1 << (i - 1), mask(n, [i], [j]), j, allowed)
    return MonomialIdeal(2 * n, minimalize(masks))


def groebner_ideal(g):
    """Leading monomials of sympy's reduced lex Groebner basis, as slot masks."""
    n = g.n
    xs = sympy.symbols(f"x1:{n + 1}")
    ys = sympy.symbols(f"y1:{n + 1}")
    binomials = [xs[i - 1] * ys[j - 1] - xs[j - 1] * ys[i - 1] for i, j in g.edges()]
    basis = sympy.groebner(binomials, *xs, *ys, order="lex")
    masks = []
    for poly in basis.polys:
        exps = poly.monoms(order="lex")[0]
        assert max(exps) == 1, "the initial ideal is squarefree"
        masks.append(sum(1 << slot for slot, e in enumerate(exps) if e))
    return tuple(sorted(masks))


def raw_masks(g):
    return [m for i in g.vertices for j in range(i + 1, g.n + 1)
            for m in _admissible_masks(g, i, j)]


def sr_faces(ideal):
    """Faces of the Stanley-Reisner complex by cardinality, via _faces_within."""
    k = ideal.num_vars
    return _faces_within((1 << k) - 1, mark_supersets(ideal.generators, k))


class TestMonomialIdeal:
    def test_minimalize(self):
        assert minimalize([0b011, 0b111, 0b110, 0b110]) == (0b011, 0b110)

    def test_normalisation_and_flags(self):
        ideal = MonomialIdeal(4, (0b1100, 0b0011, 0b1110))
        assert ideal.generators == (0b0011, 0b1100)
        assert not ideal.is_zero and not ideal.is_unit
        assert MonomialIdeal(4, ()).is_zero
        assert MonomialIdeal(4, (0, 0b01)).is_unit

    def test_slot_range_checked(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, (0b100,))


class TestEdgeGenerators:
    def test_examples(self):
        assert path(3).edges() == [(1, 2), (2, 3)]
        assert complete(3).edges() == [(1, 2), (1, 3), (2, 3)]
        assert isolated(2).edges() == []


class TestInitialIdeal:
    def test_path_is_complete_intersection(self):
        ideal = initial_ideal(path(3))
        assert ideal.generators == (mask(3, [1], [2]), mask(3, [2], [3]))

    def test_single_edge(self):
        assert initial_ideal(path(2)).generators == (mask(2, [1], [2]),)

    def test_relabelled_path_gets_cubic(self):
        # Buchberger on x1*y3 - x3*y1, x2*y3 - x3*y2 adds x1*x3*y2 - x2*x3*y1.
        g = from_edges(3, [(1, 3), (2, 3)])
        assert set(initial_ideal(g).generators) == {
            mask(3, [1], [3]),
            mask(3, [2], [3]),
            mask(3, [1, 3], [2]),
        }

    def test_complete_graph_is_quadratic(self):
        for n in (5, 11):
            expect = [mask(n, [i], [j]) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            assert sorted(raw_masks(complete(n))) == sorted(expect)
            assert initial_ideal(complete(n)).generators == tuple(sorted(expect))

    def test_edgeless_gives_zero_ideal(self):
        assert initial_ideal(isolated(3)).is_zero

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_degree_two_part_is_the_edge_set(self, n, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask_bits = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        g = from_edges(n, [e for t, e in enumerate(pairs) if mask_bits >> t & 1])
        quadratics = {
            m for m in initial_ideal(g).generators if m.bit_count() == 2
        }
        assert quadratics == {mask(n, [i], [j]) for i, j in g.edges()}


class TestInitialIdealOracles:
    def test_groebner_every_class_up_to_six(self):
        for n in range(2, 7):
            for g in enumerate_graphs(n, dedup=True):
                assert initial_ideal(g).generators == groebner_ideal(g), g

    def test_groebner_relabelled_classes_at_six(self):
        rng = random.Random(2010)
        for g in enumerate_graphs(6, dedup=True):
            perm = list(g.vertices)
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert initial_ideal(h).generators == groebner_ideal(h), h

    @pytest.mark.slow
    def test_groebner_every_class_at_seven(self):
        for g in enumerate_graphs(7, dedup=True):
            assert initial_ideal(g).generators == groebner_ideal(g), g

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_admissible_paths_match_brute_force(self, n, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        bits = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        perm = data.draw(st.permutations(range(1, n + 1)))
        g = relabel(from_edges(n, [e for t, e in enumerate(pairs) if bits >> t & 1]),
                    list(perm))
        raw = raw_masks(g)
        assert len(raw) == len(set(raw))
        assert minimalize(raw) == tuple(sorted(raw)), "admissible paths form an antichain"
        assert initial_ideal(g) == exterior_interval_ideal(g)


class TestInteriorPathIdeal:
    def test_triangle(self):
        ideal = interior_path_ideal(complete(3), 1, 2)
        assert set(ideal.generators) == {mask(3, [3]), mask(3, ys=[3])}

    def test_path_on_four(self):
        ideal = interior_path_ideal(path(4), 1, 4)
        assert set(ideal.generators) == {
            mask(4, [2, 3]),
            mask(4, [3], [2]),
            mask(4, ys=[2, 3]),
        }

    def test_fan_family_pinches_at_two(self):
        from edgebetti.families import near_max_reg_witness

        g = near_max_reg_witness(6, 5)  # fan with m = 3; every 1..6 path passes 2
        ideal = interior_path_ideal(g, 1, 6)
        assert set(ideal.generators) == {mask(6, [2]), mask(6, ys=[2])}

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            interior_path_ideal(path(3), 2, 2)


class TestStanleyReisner:
    def test_principal(self):
        faces = sr_faces(MonomialIdeal(4, (0b1001,)))  # x1*y2 in 4 slots
        assert [len(level) for level in faces] == [1, 4, 5, 2]
        assert faces[-1] == [0b0111, 0b1110]

    def test_zero_ideal_is_full_simplex(self):
        faces = sr_faces(MonomialIdeal(3, ()))
        assert faces[-1] == [0b111]

    def test_two_variables_killed(self):
        assert sr_faces(MonomialIdeal(2, (0b01, 0b10))) == [[0]]

    def test_unit_rejected(self):
        # the unit ideal contains the empty face too: there is no complex
        assert all(mark_supersets([0], 2))
        with pytest.raises(ValueError):
            betti_table_hochster(MonomialIdeal(2, (0,)))

    def test_faces_by_card(self):
        faces = sr_faces(MonomialIdeal(3, (0b111,)))  # hollow triangle
        assert faces == [[0], [0b001, 0b010, 0b100], [0b011, 0b101, 0b110]]
