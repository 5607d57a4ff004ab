"""Four lemmas that the paper's proofs rely on, tested on every class.

``verify`` checks the paper's own claims.  These tests check, against the
engine, four facts from the literature that the proofs use:

* monotonicity: an induced subgraph H with an edge has pd(H) <= pd(G) and
  reg(H) <= reg(G) (Matsuda-Murai 2013);
* the internal-vertex bound: for a vertex v whose neighbourhood is not a
  clique, reg(G) <= max(reg(G - v), reg(G_v), reg(G_v - v) + 1), where G_v
  is G with the neighbourhood of v made a clique and a term without an edge
  drops out (from Ohtani's decomposition of J_G at v);
* the clique bound: reg(G) <= n + 2 - omega(G) for connected G
  (Rouzbahani Malayeri-Saeedi Madani-Kiani 2021);
* gluing: if G is G1 and G2 glued at a vertex simplicial in both, then
  pd(G) = pd(G1) + pd(G2) + 1 and reg(G) = reg(G1) + reg(G2) - 1
  (Rauf-Rinaldo 2014).

The pair of each class comes from its atlas record.  Only the graphs that a
lemma derives from it go through ``pd_reg``, on the labelling the atlas
computes a class on (breadth-first from the canonical form), so a derived
graph that is itself a class, or that recurs, costs one lookup.  Each test
also pins its number of instances, so that a lemma cannot pass by testing
nothing.  Classes run at n <= 6; n = 7 needs --run-slow.
"""

import itertools

import pytest

from edgebetti.betti import pd_reg
from edgebetti.graphs import (
    Graph,
    breadth_first,
    canonical_form,
    from_edges,
    induced_subgraph,
)


def _pair(h):
    """The engine's (pd, reg) of h, on the labelling the atlas gives its class."""
    return pd_reg(breadth_first(canonical_form(h)))


def _is_clique(g, vertices):
    return all(g.has_edge(a, b) for a, b in itertools.combinations(vertices, 2))


def _simplicial(g, v):
    return _is_clique(g, g.neighbors(v))


def _clique_number(g):
    return max(
        k
        for k in g.vertices
        for vs in itertools.combinations(g.vertices, k)
        if _is_clique(g, vs)
    )


def _delete(g, v):
    """G - v, relabelled 1..n-1."""
    return induced_subgraph(g, [u for u in g.vertices if u != v])


def _complete_neighbourhood(g, v):
    """G_v: the neighbourhood of v made a clique."""
    nbrs = g.rows[v - 1]
    rows = [
        row | nbrs & ~(1 << i) if nbrs >> i & 1 else row for i, row in enumerate(g.rows)
    ]
    return Graph(g.n, tuple(rows))


def _glue(g1, v1, g2, v2):
    """g1 and g2 with v2 identified with v1; g2's other vertices follow g1's."""
    others = [u for u in g2.vertices if u != v2]
    label = {v2: v1, **{u: g1.n + i for i, u in enumerate(others, start=1)}}
    edges = g1.edges() + [(label[a], label[b]) for a, b in g2.edges()]
    return from_edges(g1.n + g2.n - 1, edges)


def _sizes(instances):
    """One parameter per n: n = 3..6 in Tier-1, n = 7 under --run-slow."""
    return [
        pytest.param(n, count, marks=[pytest.mark.slow] if n == 7 else [])
        for n, count in instances.items()
    ]


@pytest.mark.parametrize("n, instances", _sizes({3: 5, 4: 27, 5: 114, 6: 731, 7: 6215}))
def test_monotonicity_under_vertex_deletion(atlas_for, n, instances):
    """Every induced subgraph is reached by deleting one vertex at a time."""
    checked = 0
    for rec in atlas_for(n).records:
        for v in rec.graph.vertices:
            sub = _delete(rec.graph, v)
            if sub.edge_count == 0:
                continue
            sp, sr = _pair(sub)
            assert sp <= rec.pd and sr <= rec.reg, (rec.graph, v)
            checked += 1
    assert checked == instances


@pytest.mark.parametrize("n, instances", _sizes({3: 1, 4: 10, 5: 57, 6: 449, 7: 4464}))
def test_internal_vertex_bound(atlas_for, n, instances):
    checked = 0
    for rec in atlas_for(n).records:
        g = rec.graph
        for v in g.vertices:
            if _simplicial(g, v):
                continue
            deleted = _delete(g, v)
            completed = _complete_neighbourhood(g, v)
            terms = [_pair(completed).reg, _pair(_delete(completed, v)).reg + 1]
            if deleted.edge_count:
                terms.append(_pair(deleted).reg)
            assert rec.reg <= max(terms), (g, v, terms)
            checked += 1
    assert checked == instances


@pytest.mark.parametrize("n, instances", _sizes({3: 2, 4: 6, 5: 21, 6: 112, 7: 853}))
def test_clique_bound(atlas_for, n, instances):
    connected = [rec for rec in atlas_for(n).records if rec.connected]
    for rec in connected:
        assert rec.reg <= n + 2 - _clique_number(rec.graph), rec.graph
    assert len(connected) == instances


@pytest.mark.parametrize("n, instances", _sizes({3: 4, 4: 10, 5: 47, 6: 168, 7: 836}))
def test_gluing_at_a_simplicial_vertex(atlas_for, n, instances):
    """Every gluing of two connected classes on n vertices in all, each pair once.

    This reaches every graph that splits at a vertex simplicial in both
    parts, so no decomposition search is needed.
    """
    parts = [rec for m in range(2, n) for rec in atlas_for(m).records if rec.connected]
    checked = 0
    for i, a in enumerate(parts):
        for b in parts[i:]:
            if a.graph.n + b.graph.n - 1 != n:
                continue
            for v1, v2 in itertools.product(a.graph.vertices, b.graph.vertices):
                if not (_simplicial(a.graph, v1) and _simplicial(b.graph, v2)):
                    continue
                glued = _glue(a.graph, v1, b.graph, v2)
                want = (a.pd + b.pd + 1, a.reg + b.reg - 1)
                assert _pair(glued) == want, (a.graph, v1, b.graph, v2)
                checked += 1
    assert checked == instances
