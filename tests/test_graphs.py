import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebetti.graphs import (
    Graph,
    breadth_first,
    canon_key,
    canonical_form,
    complete,
    connected_components,
    cycle,
    disjoint_union,
    from_edges,
    induced_subgraph,
    is_complete,
    isolated,
    join,
    path,
    relabel,
    twin_classes,
    vertex_connectivity,
)


def edge_set(g):
    return set(g.edges())


@st.composite
def small_graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return from_edges(n, [e for t, e in enumerate(pairs) if mask >> t & 1])


class TestConstruction:
    def test_standard_builders(self):
        assert edge_set(complete(3)) == {(1, 2), (1, 3), (2, 3)}
        assert edge_set(path(2)) == {(1, 2)}
        g = isolated(4)
        assert g.n == 4 and g.edge_count == 0

    def test_standard_rejects_zero(self):
        for build in (complete, path, isolated):
            with pytest.raises(ValueError):
                build(0)
        with pytest.raises(ValueError):
            cycle(2)

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError):
            Graph(1, (0b1,))  # loop

    def test_vertex_ceiling(self):
        with pytest.raises(ValueError):
            isolated(32)


class TestDisjointUnionAndJoin:
    def test_union_examples(self):
        g = disjoint_union([complete(2), complete(2)])
        assert g.n == 4 and edge_set(g) == {(1, 2), (3, 4)}
        g = disjoint_union([path(3), isolated(1)])
        assert g.n == 4 and edge_set(g) == {(1, 2), (2, 3)}
        g = disjoint_union([complete(3), path(3)])
        assert g.n == 6 and g.edge_count == 5

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_join_examples(self):
        g = join(path(2), isolated(2))
        assert g.n == 4 and g.edge_count == 5
        four_cycle = join(isolated(2), isolated(2))
        assert canon_key(four_cycle) == canon_key(cycle(4))

    @given(small_graphs(), small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_join_connected_no_isolated(self, g1, g2):
        g = join(g1, g2)
        assert g.is_connected()
        assert not g.has_isolated_vertex()
        assert g.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n

    def test_join_seeded_random_pairs(self):
        rng = random.Random(20230206)

        def random_graph():
            n = rng.randint(1, 7)
            pairs = itertools.combinations(range(1, n + 1), 2)
            return from_edges(n, [e for e in pairs if rng.random() < 0.3])

        for _ in range(200):
            g1, g2 = random_graph(), random_graph()
            g = join(g1, g2)
            assert g.n == g1.n + g2.n
            assert g.is_connected()
            assert not g.has_isolated_vertex()


class TestSubgraphs:
    def test_induced_examples(self):
        assert is_complete(induced_subgraph(complete(4), [1, 2, 3]))
        assert induced_subgraph(path(5), [1, 3, 5]).edge_count == 0
        assert edge_set(induced_subgraph(path(5), [2, 3, 4])) == {(1, 2), (2, 3)}

    def test_induced_full_is_identity(self):
        g = cycle(5)
        assert induced_subgraph(g, list(g.vertices)) == g

    def test_induced_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path(3), [])

class TestComponentsAndConnectivity:
    def test_components(self):
        g = disjoint_union([complete(3), path(2)])
        assert connected_components(g) == ((1, 2, 3), (4, 5))
        assert len(connected_components(complete(5))) == 1
        assert connected_components(isolated(3)) == ((1,), (2,), (3,))

    def test_vertex_connectivity(self):
        assert vertex_connectivity(path(4)) == 1
        assert vertex_connectivity(cycle(4)) == 2
        assert vertex_connectivity(complete(5)) == 4
        with pytest.raises(ValueError):
            vertex_connectivity(disjoint_union([path(2), path(2)]))


class TestCanonicalForm:
    def test_relabelled_paths_agree(self):
        a = from_edges(3, [(1, 2), (2, 3)])
        b = from_edges(3, [(2, 1), (1, 3)])
        assert canonical_form(a) == canonical_form(b)
        assert canonical_form(a) != canonical_form(complete(3))

    def test_all_labelings_of_path(self):
        forms = set()
        for perm in itertools.permutations(range(1, 4)):
            forms.add(canon_key(relabel(path(3), perm)))
        assert len(forms) == 1

    def test_idempotent(self):
        g = cycle(5)
        assert canonical_form(canonical_form(g)) == canonical_form(g)

    @given(small_graphs(min_n=1, max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, g, rnd):
        perm = list(g.vertices)
        rnd.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


class TestTwinClasses:
    def test_examples(self):
        star = from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert twin_classes(star) == ((1,), (2, 3, 4))
        assert twin_classes(complete(4)) == ((1, 2, 3, 4),)
        assert twin_classes(path(4)) == ((1,), (2,), (3,), (4,))
        assert twin_classes(cycle(4)) == ((1, 3), (2, 4))

    @given(small_graphs(min_n=1, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_swapping_twins_is_an_automorphism(self, g):
        classes = twin_classes(g)
        assert sorted(v for block in classes for v in block) == list(g.vertices)
        for block in classes:
            for u, v in itertools.combinations(block, 2):
                perm = list(g.vertices)
                perm[u - 1], perm[v - 1] = v, u
                assert relabel(g, perm) == g


class TestBreadthFirst:
    def test_path_example(self):
        g = from_edges(5, [(3, 1), (1, 5), (5, 2), (2, 4)])
        assert breadth_first(g) == path(5)
        assert breadth_first(path(5)) == path(5)

    def test_neighbours_in_increasing_label(self):
        # 2 reaches 3 before 4, so 3's pendant comes before 4's
        for tail in ((3, 5), (4, 5)):
            g = from_edges(5, [(1, 2), (2, 3), (2, 4), tail])
            assert breadth_first(g) == g

    def test_cycle_example(self):
        assert edge_set(breadth_first(cycle(6))) == {
            (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)
        }

    def test_components_start_at_their_least_degree_vertex(self):
        # A triangle with a pendant at 3, then the path 6-5-7: the search
        # starts at the pendant 4, and the second component at 6, not at 5.
        g = from_edges(7, [(1, 2), (1, 3), (2, 3), (3, 4), (5, 6), (5, 7)])
        assert edge_set(breadth_first(g)) == {
            (1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (6, 7)
        }

    @given(small_graphs(min_n=1, max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_isomorphic_and_in_breadth_first_layers(self, g):
        h = breadth_first(g)
        assert canon_key(h) == canon_key(g)
        comps = connected_components(h)
        starts = [comp[0] for comp in comps]
        # components are contiguous label blocks, started in degree order
        assert [v for comp in comps for v in comp] == list(h.vertices)
        assert [h.degree(s) for s in starts] == sorted(h.degree(s) for s in starts)
        for comp in comps:
            assert h.degree(comp[0]) == min(h.degree(v) for v in comp)
            # each later vertex hangs off an earlier one, and the vertices
            # are labelled in the order their parents were dequeued
            parents = [min(h.neighbors(v)) for v in comp[1:]]
            assert all(p < v for p, v in zip(parents, comp[1:]))
            assert parents == sorted(parents)
