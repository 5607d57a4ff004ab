"""Acceptance suite: one test per criterion, each printing a PASS line.

The slow n = 7 exhaustive pieces are gated behind --run-slow.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from edgebetti.atlas import enumerate_graphs, probe_conjecture, verify_main_theorem
from edgebetti.betti import betti_table_hochster, pd_reg
from edgebetti.checks import (
    check_cone_formula,
    check_disjoint_union_formulas,
    check_join_regularity,
)
from edgebetti.families import (
    classify_second_max_pd_shape,
    is_max_pd_shape,
    is_reg3_shape,
    pdreg_closed_form,
    realize,
)
from edgebetti.graph6 import graph6_decode
from edgebetti.graphs import (
    complete,
    disjoint_union,
    from_edges,
    is_complete,
    path,
    relabel,
    vertex_connectivity,
)
from edgebetti.ideals import MonomialIdeal, initial_ideal
from edgebetti.oracles import betti_table_koszul

FIXTURES = Path(__file__).parent / "fixtures"


def _announce(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS ({text})")


def test_c1_figure_catalog_exact():
    catalog = json.loads((FIXTURES / "figure_catalog.json").read_text())
    assert {int(k): len(v) for k, v in catalog.items()} == {3: 2, 4: 5, 5: 9, 6: 16}
    t0 = time.perf_counter()
    for n_str, items in catalog.items():
        for item in items:
            g = graph6_decode(item["graph6"])
            assert g.n == int(n_str)
            assert pd_reg(g) == (item["pd"], item["reg"]), item["label"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"catalog took {elapsed:.1f}s"
    _announce(1, f"32 figure graphs exact in {elapsed:.1f}s")


def test_c2_extremal_families():
    t0 = time.perf_counter()
    for n in range(2, 8):
        assert pd_reg(complete(n)) == (n - 2, 2)
        assert pd_reg(path(n)) == (n - 2, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(2, f"complete and path families for n=2..7 in {elapsed:.1f}s")


def test_c3_main_theorem_exhaustive(atlas_for):
    for n in (3, 4, 5, 6):
        report = verify_main_theorem(atlas_for(n))
        assert report.passed, report.counterexample
    assert atlas_for(5).reg_top_slice == {(2, 4), (3, 4), (4, 4)}
    assert atlas_for(6).reg_top_slice == {(3, 5), (4, 5), (5, 5)}
    _announce(3, "empirical size sets match the closed form for n=3..6")


def _check_realizer(n):
    for p, r in sorted(pdreg_closed_form(n)):
        cert = realize(n, p, r)
        assert cert.claimed == (p, r)
        assert cert.graph.n == n and not cert.graph.has_isolated_vertex()
        if p >= n - 2 and r != n - 1:
            conn = realize(n, p, r, connected_required=True)
            assert conn.graph.is_connected()


def test_c4_realizer_total_small():
    for n in (3, 4, 5, 6):
        _check_realizer(n)
    _announce(4, "every closed-form pair realized and verified for n=3..6")


@pytest.mark.slow
def test_c4_realizer_total_n7():
    _check_realizer(7)
    _announce(4, "every closed-form pair realized and verified at n=7 (slow)")


def test_c5_characterization_iffs_exhaustive(atlas_for):
    checked = 0
    for n in (5, 6):
        for rec in atlas_for(n).records:
            g, p, r = rec.graph, rec.pd, rec.reg
            assert (p == 2 * n - 5) == is_max_pd_shape(g), g
            assert (p == 2 * n - 6) == classify_second_max_pd_shape(g)[0], g
            if not is_complete(g):
                assert (r == 3) == is_reg3_shape(g), g
            checked += 1
    _announce(5, f"three shape iffs hold on all {checked} classes at n=5,6")


def test_c6a_oracle_equivalence_graphs():
    count = 0
    for n in (2, 3, 4):
        for g in enumerate_graphs(n, dedup=True):
            ideal = initial_ideal(g)
            for field_tag in ("q", "f2"):
                assert (
                    betti_table_hochster(ideal, field_tag).entries
                    == betti_table_koszul(ideal, field_tag).entries
                )
            count += 1
    _announce(6, f"oracle equality on the {count} graph ideals with n<=4")


def test_c6b_oracle_equivalence_random_ideals():
    rng = random.Random(20250314)
    for trial in range(200):
        slots = rng.randint(3, 10)
        gens = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(4, slots))
            gens.append(sum(1 << b for b in rng.sample(range(slots), size)))
        ideal = MonomialIdeal(slots, tuple(gens))
        for field_tag in ("q", "f2"):
            a = betti_table_hochster(ideal, field_tag)
            b = betti_table_koszul(ideal, field_tag)
            assert a.entries == b.entries, (trial, ideal.generators)
    _announce(6, "oracle equality on 200 random squarefree ideals, both fields")


def _random_graph(rng, n, connected=False, no_isolated=False):
    while True:
        edges = [
            e
            for e in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.55
        ]
        g = from_edges(n, edges)
        if no_isolated and g.has_isolated_vertex():
            continue
        if connected and not g.is_connected():
            continue
        if g.edge_count == 0:
            continue
        return g


def _simplicial(g, v):
    """v's neighbourhood is a clique."""
    return all(g.has_edge(a, b) for a, b in itertools.combinations(g.neighbors(v), 2))


def _random_glued_graph(rng):
    """A gluing g = h1 cup_v h2 at a vertex simplicial in both parts, with the parts."""
    while True:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        if n1 + n2 - 1 > 7:
            continue
        g1 = _random_graph(rng, n1, connected=True)
        g2 = _random_graph(rng, n2, connected=True)
        s1 = [v for v in g1.vertices if _simplicial(g1, v)]
        s2 = [v for v in g2.vertices if _simplicial(g2, v)]
        if not s1 or not s2:
            continue
        # relabel so the shared vertex sits at n1 in g1 and at 1 in g2
        v1, v2 = rng.choice(s1), rng.choice(s2)
        perm1 = [v if v not in (v1, n1) else (n1 if v == v1 else v1) for v in g1.vertices]
        perm2 = [v if v not in (v2, 1) else (1 if v == v2 else v2) for v in g2.vertices]
        h1 = relabel(g1, perm1)
        h2 = relabel(g2, perm2)
        edges = h1.edges() + [(u + n1 - 1, v + n1 - 1) for u, v in h2.edges()]
        return from_edges(n1 + n2 - 1, edges), h1, h2


def test_c7_composition_formulas_randomized():
    rng = random.Random(987123)
    for _ in range(200):
        count = rng.randint(2, 3)
        sizes = [rng.randint(2, 3) for _ in range(count)]
        while sum(sizes) > 7:
            sizes.pop()
        if len(sizes) < 2:
            sizes = [2, 2]
        parts = [_random_graph(rng, k, no_isolated=True) for k in sizes]
        assert check_disjoint_union_formulas(parts).passed
    joins = 0
    while joins < 100:
        g1 = _random_graph(rng, rng.randint(2, 3))
        g2_n = rng.randint(1, 3)
        g2 = (
            from_edges(g2_n, [])
            if rng.random() < 0.4
            else _random_graph(rng, max(g2_n, 2))
        )
        if (is_complete(g1) and is_complete(g2)) or g1.n + g2.n > 6:
            continue
        assert check_join_regularity(g1, g2).passed
        joins += 1
    cones = 0
    while cones < 100:
        base = (
            _random_graph(rng, rng.randint(2, 5), no_isolated=True)
            if rng.random() < 0.6
            else disjoint_union(
                [
                    _random_graph(rng, 2, no_isolated=True),
                    _random_graph(rng, rng.randint(2, 3), no_isolated=True),
                ]
            )
        )
        if is_complete(base) or base.n > 5:
            continue
        assert check_cone_formula(base).passed
        cones += 1
    for _ in range(50):
        g, h1, h2 = _random_glued_graph(rng)
        (p1, r1), (p2, r2) = pd_reg(h1), pd_reg(h2)
        assert pd_reg(g) == (p1 + p2 + 1, r1 + r2 - 1)
    _announce(7, "200 unions, 100 joins, 100 cones, 50 gluings: zero violations")


def test_c8_published_ceiling_at_n6(atlas_for):
    report = probe_conjecture(atlas_for(6))
    assert report.passed
    assert report.details["max_pd_in_slice"] == 5  # = 2n-7 at n=6
    _announce(8, "reg = 5 slice at n=6 stays under the published ceiling")


@pytest.mark.slow
def test_c8_conjecture_probe_n7(atlas_for):
    report = probe_conjecture(atlas_for(7))
    assert report.passed, report.counterexample
    assert report.details["max_pd_in_slice"] <= 7
    _announce(
        8,
        f"all {report.details['slice_size']} classes with reg=6 at n=7 "
        f"have pd <= 7 (slow)",
    )


def _bound_clauses(rec, n):
    p, r = rec.pd, rec.reg
    assert 2 * n - (p + 1) >= 4  # depth floor, equivalently p <= 2n-5
    if p == 2 * n - 5 and n >= 5:
        assert 3 <= r <= n - 2
    if p == 2 * n - 6 and n >= 6:
        assert 3 <= r <= n - 2
    if 3 <= r <= n - 1:
        assert p >= max(n - r, r - 2)
    if rec.connected and not is_complete(rec.graph):
        assert p >= n + vertex_connectivity(rec.graph) - 3


def test_c9_bound_suite_exhaustive(atlas_for):
    total = 0
    for n in (3, 4, 5, 6):
        for rec in atlas_for(n).records:
            _bound_clauses(rec, n)
            total += 1
    _announce(9, f"depth, window, refined and connectivity bounds on {total} classes")


@pytest.mark.slow
def test_c9_bound_suite_n7(atlas_for):
    for rec in atlas_for(7).records:
        _bound_clauses(rec, 7)
        g, p, r = rec.graph, rec.pd, rec.reg
        assert (p == 9) == is_max_pd_shape(g)
        assert (p == 8) == classify_second_max_pd_shape(g)[0]
        if not is_complete(g):
            assert (r == 3) == is_reg3_shape(g)
    _announce(9, "bounds and shape iffs on all 888 classes at n=7 (slow)")
