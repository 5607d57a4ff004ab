import itertools
import json
from functools import lru_cache
from pathlib import Path

import networkx
import pytest

from edgebetti import atlas as atlas_module
from edgebetti.atlas import (
    _class_reps,
    atlas_records,
    compute_atlas,
    enumerate_graphs,
    probe_conjecture,
    verify_main_theorem,
)
from edgebetti.betti import graph_betti_table, pd_reg, pd_reg_of_table
from edgebetti.graph6 import graph6_encode
from edgebetti.graphs import (
    Graph,
    _canonical_rows,
    breadth_first,
    canon_key,
    canonical_form,
    connected_components,
    from_edges,
)

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def atlas_keys(n):
    """Canonical keys of networkx's graph atlas on n vertices, an independent list."""
    return {
        canon_key(canonical_form(from_edges(n, [(u + 1, v + 1) for u, v in h.edges()])))
        for h in networkx.graph_atlas_g()
        if h.number_of_nodes() == n
    }


def extension_inputs(reps, n):
    """Rows of every one-vertex extension: each class on n - 1, all 2^(n-1) masks."""
    for h in reps:
        for mask in range(1 << (n - 1)):
            rows = [r | 1 << (n - 1) if mask >> b & 1 else r for b, r in enumerate(h.rows)]
            yield (*rows, mask)


@lru_cache(maxsize=None)
def unpruned_class_reps(n):
    """Reference for ``_class_reps``: the extension loop with no twin pruning."""
    if n == 1:
        return (Graph(1, (0,)),)
    seen = {}
    for rows in extension_inputs(unpruned_class_reps(n - 1), n):
        g = canonical_form(Graph(n, rows))
        seen.setdefault(canon_key(g), g)
    return tuple(g for _, g in sorted(seen.items()))


def brute_force_canonical_rows(n, rows):
    """Rows under an order whose column key is least over all n! orders.

    Column k of an order p holds the adjacency of p[k] to p[0..k-1], bit i
    for p[i]; the least key fixes the rows, whichever order reaches it.
    """
    best = min(
        tuple(sum((rows[p[k]] >> p[i] & 1) << i for i in range(k)) for k in range(n))
        for p in itertools.permutations(range(n))
    )
    out = [0] * n
    for k, column in enumerate(best):
        for i in range(k):
            if column >> i & 1:
                out[k] |= 1 << i
                out[i] |= 1 << k
    return tuple(out)


class TestTwinPruning:
    """The pruned search and extension loop against exhaustive references."""

    def test_canonical_rows_are_the_least_key_over_all_orders(self):
        inputs = [
            (n, rows)
            for n in range(2, 6)
            for rows in extension_inputs(unpruned_class_reps(n - 1), n)
        ]
        inputs += [(6, rows) for rows in extension_inputs(unpruned_class_reps(5), 6)][::5]
        assert len(inputs) == 218 + 218
        for n, rows in inputs:
            assert _canonical_rows(n, rows) == brute_force_canonical_rows(n, rows), rows

    def test_pruned_extension_equals_every_mask(self):
        for n in range(1, 7):
            assert _class_reps(n) == unpruned_class_reps(n), n

    def test_extension_calls_one_canonical_form_per_twin_orbit(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return canonical_form(g)

        monkeypatch.setattr(atlas_module, "canonical_form", counted)
        # a fresh cache, so that every level up to 6 is enumerated again
        fresh = lru_cache(maxsize=None)(atlas_module._class_reps.__wrapped__)
        monkeypatch.setattr(atlas_module, "_class_reps", fresh)
        fresh(6)
        assert len(calls) == 782  # 1,306 with every mask

    def test_class_counts_at_seven(self):
        reps = _class_reps(7)
        assert len(reps) == 1044
        assert sum(not g.has_isolated_vertex() for g in reps) == 888


class TestEnumeration:
    def test_labeled_counts(self):
        assert len(list(enumerate_graphs(3))) == 4
        assert len(list(enumerate_graphs(4))) == 41

    def test_dedup_counts(self):
        assert [len(_class_reps(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
        assert [len(list(enumerate_graphs(n, dedup=True))) for n in (3, 4, 5, 6)] == [
            2,
            7,
            23,
            122,
        ]

    def test_classes_match_networkx_atlas(self):
        for n in range(1, 7):
            reps = _class_reps(n)
            assert {canon_key(canonical_form(g)) for g in reps} == atlas_keys(n)

    @pytest.mark.slow
    def test_classes_match_networkx_atlas_at_seven(self):
        assert {canon_key(canonical_form(g)) for g in _class_reps(7)} == atlas_keys(7)

    def test_connected_filter(self):
        conn = [g for g in enumerate_graphs(4, dedup=True) if g.is_connected()]
        assert len(conn) == 6

    def test_no_isolated(self):
        assert all(not g.has_isolated_vertex() for g in enumerate_graphs(4, dedup=True))

    def test_budget(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(8))

    def test_representatives_are_canonical(self):
        for g in enumerate_graphs(5, dedup=True):
            assert canonical_form(g) == g


class TestAtlas:
    def test_n4_pairs(self, atlas_for):
        atlas = atlas_for(4)
        assert atlas.all_graphs.pairs == {(2, 2), (1, 3), (2, 3), (3, 3), (2, 4)}

    def test_dedup_invariance_at_n4(self, atlas_for):
        labeled_pairs = {pd_reg(g) for g in enumerate_graphs(4)}
        assert labeled_pairs == set(atlas_for(4).all_graphs.pairs)

    def test_witnesses_recompute(self, atlas_for):
        atlas = atlas_for(5)
        for pair, g in atlas.all_graphs.witnesses.items():
            assert tuple(pd_reg(g)) == pair
            assert g.n == 5 and not g.has_isolated_vertex()

    def test_component_formulas_hold_for_witnesses(self, atlas_for):
        from edgebetti.graphs import induced_subgraph

        atlas = atlas_for(5)
        for rec in atlas.records:
            comps = connected_components(rec.graph)
            if len(comps) < 2:
                continue
            parts = [pd_reg(induced_subgraph(rec.graph, c)) for c in comps]
            c = len(comps)
            assert rec.pd == sum(q.pd for q in parts) + (c - 1)
            assert rec.reg == sum(q.reg for q in parts) - (c - 1)

    def test_records_in_canonical_order(self):
        recs = atlas_records(4)
        graphs = [r.graph for r in recs]
        assert graphs == list(enumerate_graphs(4, dedup=True))

    def test_worker_count_independence(self):
        serial = atlas_records(4, jobs=1)
        parallel = atlas_records(4, jobs=2)
        assert [(r.pd, r.reg) for r in serial] == [
            (r.pd, r.reg) for r in parallel
        ]


class TestBreadthFirstLabelling:
    def test_serial_engine_sees_breadth_first_graphs(self, monkeypatch):
        seen = []

        def recording(g, field_tag="q"):
            seen.append(g)
            return pd_reg(g, field_tag)

        monkeypatch.setattr(atlas_module, "pd_reg", recording)
        recs = atlas_records(5)
        reps = list(enumerate_graphs(5, dedup=True))
        assert seen == [breadth_first(g) for g in reps]
        assert [r.graph for r in recs] == reps

    def test_pool_sees_breadth_first_graphs(self, monkeypatch):
        sent = []

        class InlinePool:
            def __init__(self, jobs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                sent.extend(items)
                return [fn(x) for x in items]

        monkeypatch.setattr("multiprocessing.Pool", InlinePool)
        recs = atlas_records(4, jobs=2)
        reps = list(enumerate_graphs(4, dedup=True))
        assert [(n, rows) for n, rows, _ in sent] == [
            (g.n, breadth_first(g).rows) for g in reps
        ]
        assert [r.graph for r in recs] == reps

    @pytest.mark.parametrize("field_tag", ["q", "f2", "fp:3"])
    def test_pairs_do_not_depend_on_the_labelling(self, field_tag):
        for n in range(2, 6):
            for g in enumerate_graphs(n, dedup=True):
                want = pd_reg_of_table(graph_betti_table(g, field_tag))
                assert pd_reg(breadth_first(g), field_tag) == want, (g, field_tag)

    @pytest.mark.slow
    @pytest.mark.parametrize("field_tag", ["q", "f2", "fp:3"])
    def test_pairs_do_not_depend_on_the_labelling_at_six(self, field_tag):
        for g in enumerate_graphs(6, dedup=True):
            want = pd_reg_of_table(graph_betti_table(g, field_tag))
            assert pd_reg(breadth_first(g), field_tag) == want, (g, field_tag)

    @pytest.mark.slow
    def test_atlas_at_seven_matches_frozen_records(self):
        frozen = json.loads(EXPECTED.read_text())["n7"]["records"]
        got = [[graph6_encode(r.graph), r.pd, r.reg] for r in compute_atlas(7).records]
        assert len(got) == 888
        assert got == frozen


class TestFieldShadowRun:
    def test_gf2_shadow_matches_rationals_up_to_five(self):
        """Characteristic-2 shadow run: any discrepancy would surface here."""
        for n in (2, 3, 4, 5):
            for g in enumerate_graphs(n, dedup=True):
                assert pd_reg(g, "f2") == pd_reg(g, "q"), g


class TestVerifyAndProbe:
    def test_main_theorem_small(self, atlas_for):
        for n in (3, 4):
            rep = verify_main_theorem(atlas_for(n))
            assert rep.passed

    def test_probe_at_five(self, atlas_for):
        rep = probe_conjecture(atlas_for(5))
        assert rep.passed
        assert rep.details["max_pd_in_slice"] == 4

    def test_probe_range_checked(self, atlas_for):
        with pytest.raises(ValueError):
            probe_conjecture(atlas_for(4))
