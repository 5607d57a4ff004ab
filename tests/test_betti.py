import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebetti import betti
from edgebetti.atlas import enumerate_graphs
from edgebetti.betti import (
    EdgelessGraphError,
    betti_table_hochster,
    graph_betti_table,
    pd_reg,
)
from edgebetti.graphs import (
    breadth_first,
    complete,
    disjoint_union,
    from_edges,
    induced_subgraph,
    isolated,
    join,
    path,
    relabel,
)
from edgebetti.homology import homology_from_faces
from edgebetti.ideals import MonomialIdeal, initial_ideal, mark_supersets
from edgebetti.oracles import betti_table_koszul


class TestHochsterGoldens:
    def test_principal_ideal(self):
        table = betti_table_hochster(MonomialIdeal(4, (0b1001,)))
        assert table.entries == {(0, 0): 1, (1, 2): 1}

    def test_path_three(self):
        table = betti_table_hochster(initial_ideal(path(3)))
        assert table.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        assert pd_reg(path(3)) == (1, 3)

    def test_triangle(self):
        table = betti_table_hochster(initial_ideal(complete(3)))
        assert table.quotient_pd == 2 and table.quotient_reg == 1
        assert pd_reg(complete(3)) == (1, 2)

    def test_zero_ideal(self):
        assert betti_table_hochster(MonomialIdeal(4, ())).entries == {(0, 0): 1}

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            betti_table_hochster(MonomialIdeal(4, (0,)))
        with pytest.raises(ValueError):
            betti_table_koszul(MonomialIdeal(4, (0,)))


class TestPdReg:
    def test_extremal_families_small(self):
        for n in range(2, 6):
            assert pd_reg(complete(n)) == (n - 2, 2)
            assert pd_reg(path(n)) == (n - 2, n)

    def test_two_edges(self):
        assert pd_reg(disjoint_union([complete(2), complete(2)])) == (1, 3)

    def test_edgeless_rejected(self):
        with pytest.raises(EdgelessGraphError):
            pd_reg(isolated(3))

    def test_edge_slots_over_budget_refused_before_paths(self, monkeypatch):
        calls = []

        def failing(g):
            calls.append(g)
            raise AssertionError("initial_ideal must not run over budget")

        monkeypatch.setattr(betti, "initial_ideal", failing)
        with pytest.raises(ValueError, match="at least 22 active slots"):
            graph_betti_table(complete(12))
        assert calls == []

    @pytest.mark.slow
    def test_complete_eleven(self):
        assert pd_reg(complete(11)) == (9, 2)

    def test_isolated_vertices_are_free(self):
        # extra isolated vertices only add free variables
        assert pd_reg(disjoint_union([path(3), isolated(2)])) == pd_reg(path(3))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_isomorphism_invariance(self, data):
        graphs = [g for n in (3, 4, 5) for g in [path(n)]] + [
            from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)]),
            join(path(2), isolated(2)),
        ]
        g = data.draw(st.sampled_from(graphs))
        perm = data.draw(st.permutations(list(g.vertices)))
        assert pd_reg(relabel(g, list(perm))) == pd_reg(g)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_induced_monotonicity(self, data):
        n = data.draw(st.integers(3, 5))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        bits = data.draw(st.integers(1, 2 ** len(pairs) - 1))
        g = from_edges(n, [e for t, e in enumerate(pairs) if bits >> t & 1])
        size = data.draw(st.integers(2, n))
        sub_vertices = data.draw(st.permutations(list(g.vertices)))[:size]
        sub = induced_subgraph(g, sub_vertices)
        if sub.edge_count == 0:
            return
        sp, sr = pd_reg(sub)
        p, r = pd_reg(g)
        assert sp <= p and sr <= r


def kpolynomial_numerator(ideal):
    """Numerator of the Hilbert series of S/I by inclusion-exclusion.

    Coefficient of t^d is sum over generator subsets with union of size d of
    (-1)^(subset size).  Exponential in the number of generators; an
    independent check on small inputs only.
    """
    gens = ideal.generators
    assert len(gens) <= 20, "inclusion-exclusion limited to 20 generators"
    coeffs = {}
    for sub in range(1 << len(gens)):
        u = 0
        t = sub
        while t:
            low = t & -t
            u |= gens[low.bit_length() - 1]
            t ^= low
        d = u.bit_count()
        coeffs[d] = coeffs.get(d, 0) + (-1 if sub.bit_count() & 1 else 1)
    return {d: c for d, c in coeffs.items() if c}


def table_alternating_sum(table):
    """sum_i (-1)^i beta_{i,j} per degree j; equals the K-polynomial."""
    coeffs = {}
    for (i, j), b in table.entries.items():
        coeffs[j] = coeffs.get(j, 0) + (-b if i & 1 else b)
    return {d: c for d, c in coeffs.items() if c}


def random_squarefree_ideal(rng, max_slots=8):
    slots = rng.randint(2, max_slots)
    gens = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, min(3, slots))
        gens.append(sum(1 << b for b in rng.sample(range(slots), size)))
    return MonomialIdeal(slots, tuple(gens))


class TestOracleAgreement:
    def test_small_graphs_both_fields(self):
        for n in (2, 3):
            for g in enumerate_graphs(n, dedup=True):
                ideal = initial_ideal(g)
                for field_tag in ("q", "f2", "fp:3"):
                    assert (
                        betti_table_hochster(ideal, field_tag).entries
                        == betti_table_koszul(ideal, field_tag).entries
                    )

    def test_tables_hash_like_they_compare(self):
        ideal = initial_ideal(path(4))
        hochster = betti_table_hochster(ideal, "q")
        koszul = betti_table_koszul(ideal, "f2")  # no torsion: same entries
        assert hochster == koszul
        assert hash(hochster) == hash(koszul)
        assert len({hochster, koszul}) == 1
        assert len({hochster, betti_table_hochster(initial_ideal(path(3)))}) == 2

    def test_random_ideals(self):
        rng = random.Random(11)
        for _ in range(25):
            ideal = random_squarefree_ideal(rng)
            for field_tag in ("q", "f2", "fp:3"):
                assert (
                    betti_table_hochster(ideal, field_tag).entries
                    == betti_table_koszul(ideal, field_tag).entries
                )


class TestHilbertSeriesIdentity:
    def test_all_graphs_up_to_four(self):
        for n in (2, 3, 4):
            for g in enumerate_graphs(n, dedup=True):
                ideal = initial_ideal(g)
                table = betti_table_hochster(ideal)
                assert table_alternating_sum(table) == kpolynomial_numerator(ideal)

    def test_random_ideals(self):
        rng = random.Random(13)
        for _ in range(25):
            ideal = random_squarefree_ideal(rng)
            table = betti_table_hochster(ideal)
            assert table_alternating_sum(table) == kpolynomial_numerator(ideal)


def union_closure_by_sets(gens):
    """Every union of generators, sorted, from a set; the bitset's reference."""
    fam = {0}
    for g in gens:
        fam |= {w | g for w in fam}
    return sorted(fam)


@st.composite
def generator_lists(draw):
    """Generators whose union spans exactly k slots, k = 1..12, with
    duplicate and nested generators drawn in on purpose."""
    k = draw(st.integers(1, 12))
    gens = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=10))
    gens.append(draw(st.integers(1 << (k - 1), (1 << k) - 1)))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)) | draw(st.sampled_from(gens)))
    return draw(st.permutations(gens))


def complete_eleven_generators():
    """K_11's compressed generators: 55 on 20 slots, the largest at the cap."""
    gens, k = betti._compress(initial_ideal(complete(11)).generators)
    assert (len(gens), k) == (55, 20)
    return gens


class TestUnionClosure:
    @given(generator_lists())
    @settings(max_examples=300, deadline=None)
    @example([])
    @example([0])
    @example([0b1])
    @example([0b10, 0b10])
    @example([0b100, 0b011, 0b111])
    @example([0b101, 0b011, 0b001])
    def test_equals_set_loop(self, gens):
        assert list(betti._union_closure(gens)) == union_closure_by_sets(gens)

    def test_complete_eleven(self):
        closure = list(betti._union_closure(complete_eleven_generators()))
        assert len(closure) == 466031
        assert (closure[0], closure[-1]) == (0, (1 << 20) - 1)

    def test_complete_eleven_peak_memory(self):
        """The family is a 2**20-bit int: no set or list of the 466,031 W."""
        gens = complete_eleven_generators()
        tracemalloc.start()
        try:
            for _ in betti._union_closure(gens):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_over_budget_refused_before_the_bitset(self):
        with pytest.raises(ValueError, match="21 slots exceeds the budget"):
            next(betti._union_closure([1 << 20]))


def hochster_without_memo(ideal, field_tag):
    """Hochster's formula with one homology computation per W, no memo."""
    gens, k = betti._compress(ideal.generators)
    nonface = mark_supersets(gens, k)
    entries = {}
    for w in betti._union_closure(gens):
        hvec = homology_from_faces(betti._faces_within(w, nonface), field_tag)
        j = w.bit_count()
        for d, h in enumerate(hvec, start=-1):
            if h:
                entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + h
    return entries


def squeezed_tuple(w, gens):
    """|w| and the generators inside w renumbered onto w's slots in order."""
    slots = [b for b in range(w.bit_length()) if w >> b & 1]
    inside = tuple(
        sum(1 << slots.index(b) for b in range(g.bit_length()) if g >> b & 1)
        for g in gens
        if g & ~w == 0
    )
    return len(slots), inside


@st.composite
def memo_ideals(draw):
    """Random squarefree ideals, half of them disjoint copies of one pattern."""
    slots = draw(st.integers(2, 4))
    pattern = draw(
        st.lists(st.integers(1, (1 << slots) - 1), min_size=1, max_size=3)
    )
    if draw(st.booleans()):
        copies = draw(st.integers(2, 3))
        gens = [g << (slots * c) for c in range(copies) for g in pattern]
        return MonomialIdeal(slots * copies, tuple(gens))
    more = draw(st.lists(st.integers(1, 255), min_size=0, max_size=4))
    return MonomialIdeal(8, tuple(pattern + more))


class TestSubidealMemo:
    @given(memo_ideals(), st.sampled_from(["q", "f2", "fp:3"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_plain_loop(self, ideal, field_tag):
        table = betti_table_hochster(ideal, field_tag)
        assert table.entries == hochster_without_memo(ideal, field_tag)

    @given(memo_ideals(), memo_ideals())
    @settings(max_examples=60, deadline=None)
    # Same bits after the sentinel: 3 generators on 4 slots, 2 on 6.
    @example(
        MonomialIdeal(4, (0b0101, 0b0110, 0b1010)),
        MonomialIdeal(6, (0b010101, 0b101010)),
    )
    def test_key_equal_iff_squeezed_tuples_equal(self, first, second):
        by_key, by_tuple = {}, {}
        for ideal in (first, second):
            gens, _ = betti._compress(ideal.generators)
            for w in betti._union_closure(gens):
                key = betti._subideal_key(w, gens)
                squeezed = squeezed_tuple(w, gens)
                assert by_key.setdefault(key, squeezed) == squeezed
                assert by_tuple.setdefault(squeezed, key) == key

    @pytest.mark.parametrize("graph, pair", [(complete(9), (7, 2)), (path(10), (8, 10))])
    def test_no_residue_on_single_graphs(self, monkeypatch, graph, pair):
        """R1 and R2 reduce every complex of K_9 and P_10: no faces are built."""
        counted = []

        def counting(faces, field_tag):
            counted.append(1)
            return homology_from_faces(faces, field_tag)

        monkeypatch.setattr(betti, "homology_from_faces", counting)
        assert betti.pd_reg_of_table(graph_betti_table(graph)) == pair
        assert counted == []

    def test_one_homology_call_per_residue_key(self, monkeypatch):
        """On the n = 6 atlas, each residue of one call has its faces built once."""
        per_call = []

        def counting(faces, field_tag):
            per_call[-1].append(tuple(map(tuple, faces)))
            return homology_from_faces(faces, field_tag)

        monkeypatch.setattr(betti, "homology_from_faces", counting)
        for g in enumerate_graphs(6, dedup=True):
            per_call.append([])
            graph_betti_table(breadth_first(g))
        residues = [faces for call in per_call for faces in call]
        assert all(len(set(call)) == len(call) for call in per_call)
        assert len(residues) == 83
        assert sum(len(level) for faces in residues for level in faces) == 1190


def trimmed(hvec):
    hvec = list(hvec)
    while hvec and not hvec[-1]:
        hvec.pop()
    return hvec


class TestReductions:
    """H~(D_W) from R1/R2 against the homology of D_W's full face set."""

    def test_every_w_up_to_six(self):
        fields = ("q", "f2", "fp:3")
        # The full face set of D_W, once per subideal key: every W with that
        # key has the same complex up to relabelling.
        faces_by_key: dict[int, list[list[int]]] = {}
        got_by_field = {f: [] for f in fields}
        classes = 0
        for n in range(2, 7):
            for g in enumerate_graphs(n, dedup=True):
                classes += 1
                gens, k = betti._compress(initial_ideal(breadth_first(g)).generators)
                nonface = mark_supersets(gens, k)
                memos = {f: {} for f in fields}
                for w in betti._union_closure(gens):
                    key = betti._subideal_key(w, gens)
                    if key not in faces_by_key:
                        faces_by_key[key] = betti._faces_within(w, nonface)
                    inside = [x for x in gens if x & w == x]
                    for f in fields:
                        hvec = betti._reduced_homology(w, inside, f, memos[f])
                        got_by_field[f].append((key, trimmed(hvec), g, w))
        assert (classes, len(got_by_field["q"]), len(faces_by_key)) == (155, 51621, 8949)
        for f in fields:
            want = {
                key: trimmed(homology_from_faces(faces, f))
                for key, faces in faces_by_key.items()
            }
            for key, got, g, w in got_by_field[f]:
                assert got == want[key], (f, g, w)
