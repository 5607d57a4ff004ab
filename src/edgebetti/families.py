"""Witness constructions for every realizable Betti-table size.

The classification of pairs (proj dim, reg) over graphs on n non-isolated
vertices is assembled from a few explicit families:

  * two non-adjacent universal vertices force the maximal projective
    dimension 2n-5, and conversely;
  * the second-maximal value 2n-6 is forced by one of three shapes (a join
    with three independent universal vertices, a join with a universal
    triangle-minus-edge triple, or a covering non-adjacent pair), provided
    the 2n-5 shape is excluded;
  * regularity 3 comes from two disjoint cliques or a join of low-regularity
    parts, and cones walk the projective dimension down in steps of 2;
  * regularity n-2 comes from small disjoint unions and a fan-over-path
    family that sweeps pd over n-1..2n-5 as its fan base shrinks.

``realize`` stitches these together with two recursions (cone for p >= n-1,
disjoint edge for small p) into a witness for every pair in the closed-form
set, then recomputes the invariants of the witness from scratch:
constructions are never trusted, only verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .betti import PdRegPair, pd_reg
from .graphs import (
    MAX_VERTICES,
    Graph,
    _bits,
    complement,
    complete,
    cone,
    connected_components,
    disjoint_union,
    induced_subgraph,
    isolated,
    join,
    path,
    from_edges,
)


class RealizeError(ValueError):
    pass


# -- shape detectors ---------------------------------------------------------


def is_max_pd_shape(g: Graph) -> bool:
    """Two non-adjacent universal vertices: g is (something) joined to 2K1."""
    if g.n < 3:
        return False
    full = (1 << g.n) - 1
    for u in range(g.n):
        ru = g.rows[u]
        if ru.bit_count() != g.n - 2:
            continue
        v = (full & ~ru & ~(1 << u)).bit_length() - 1
        if v > u and g.rows[v] == full & ~(1 << u) & ~(1 << v):
            return True
    return False


@dataclass(frozen=True)
class CoveringPairWitness:
    """Non-adjacent u, v whose neighborhoods cover everything else.

    shared = N(u) & N(v), only_u and only_v the exclusive parts (both
    nonempty), and every only_u -- only_v pair is an edge.
    """

    u: int
    v: int
    shared: tuple[int, ...]
    only_u: tuple[int, ...]
    only_v: tuple[int, ...]


def find_covering_pair(g: Graph) -> Optional[CoveringPairWitness]:
    """Exhaustive search over non-adjacent pairs; the split is forced."""
    full = (1 << g.n) - 1
    for u in g.vertices:
        for v in range(u + 1, g.n + 1):
            if g.has_edge(u, v):
                continue
            nu = g.neighbors_mask(u)
            nv = g.neighbors_mask(v)
            if nu | nv != full & ~(1 << (u - 1)) & ~(1 << (v - 1)):
                continue
            only_u = nu & ~nv
            only_v = nv & ~nu
            if not only_u or not only_v:
                continue
            if all(g.rows[a] & only_v == only_v for a in _bits(only_u)):
                return CoveringPairWitness(
                    u,
                    v,
                    tuple(b + 1 for b in _bits(nu & nv)),
                    tuple(b + 1 for b in _bits(only_u)),
                    tuple(b + 1 for b in _bits(only_v)),
                )
    return None


def classify_second_max_pd_shape(g: Graph) -> tuple[bool, str]:
    """Shape test for pd = 2n-6, with the 2n-5 shape excluded first.

    Reasons: "universal_triple" (join with 3 independent vertices),
    "universal_edge_point" (join with K1 + an edge), "covering_pair", or
    "excluded_two_universal" / "none" when the test fails.
    """
    if is_max_pd_shape(g):
        return (False, "excluded_two_universal")
    if g.n >= 4:
        triples = [
            c
            for c in connected_components(complement(g))
            if len(c) == 3
        ]
        for c in triples:
            if induced_subgraph(g, c).edge_count == 0:
                return (True, "universal_triple")
        for c in triples:
            if induced_subgraph(g, c).edge_count == 1:
                return (True, "universal_edge_point")
    if find_covering_pair(g) is not None:
        return (True, "covering_pair")
    return (False, "none")


def join_splits(g: Graph) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All splits V = A | B with every A-B pair an edge (A holds vertex 1).

    A join part must be a union of components of the complement, so the
    splits are exactly the 2-colourings of those components.
    """
    comps = connected_components(complement(g))
    if len(comps) < 2:
        return
    first, rest = comps[0], comps[1:]
    for mask in range(1 << len(rest)):
        side_a = list(first)
        side_b = []
        for i, comp in enumerate(rest):
            (side_a if mask >> i & 1 else side_b).extend(comp)
        if side_b:
            yield tuple(sorted(side_a)), tuple(sorted(side_b))


def is_two_clique_union(g: Graph) -> bool:
    comps = connected_components(g)
    if len(comps) != 2 or any(len(c) < 2 for c in comps):
        return False
    return all(
        induced_subgraph(g, c).edge_count == len(c) * (len(c) - 1) // 2
        for c in comps
    )


def _side_reg_at_most_3(g: Graph, side: tuple[int, ...], field: str) -> bool:
    part = induced_subgraph(g, side)
    if part.edge_count == 0:
        return True
    return pd_reg(part, field).reg <= 3


def has_low_reg_join_split(g: Graph, field: str = "q") -> bool:
    """Some join split with both sides of regularity at most 3 (or edgeless)."""
    return any(
        _side_reg_at_most_3(g, a, field) and _side_reg_at_most_3(g, b, field)
        for a, b in join_splits(g)
    )


def is_reg3_shape(g: Graph, field: str = "q") -> bool:
    """The structural characterization of regularity 3 for non-complete g."""
    return is_two_clique_union(g) or has_low_reg_join_split(g, field)


# -- explicit families ---------------------------------------------------------


def max_pd_witness(n: int, r: int) -> Graph:
    """Graph with pd = 2n-5 and reg = r: a path plus filler, joined to 2K1."""
    if n < 5 or not 3 <= r <= n - 2:
        raise ValueError(f"need n >= 5 and 3 <= r <= n-2, got n={n}, r={r}")
    base = path(r) if r == n - 2 else disjoint_union([path(r), isolated(n - 2 - r)])
    return join(base, isolated(2))


def second_max_pd_witness(n: int, r: int) -> Graph:
    """Graph with pd = 2n-6 and reg = r.

    For r <= n-3 a path plus filler joined to 3K1 works, except at
    (n, r) = (6, 3) where that join degenerates into the 2n-5 shape (the
    path endpoints become a universal non-adjacent pair); there a triangle
    joined to K1 + K2 is used instead.  For r = n-2 an explicit
    covering-pair graph over a path does it.
    """
    if n < 6 or not 3 <= r <= n - 2:
        raise ValueError(f"need n >= 6 and 3 <= r <= n-2, got n={n}, r={r}")
    if r == n - 2:
        edges = [(i, i + 1) for i in range(1, n - 2)]
        edges += [(i, n - 1) for i in range(1, n - 2)]
        edges += [(i, n) for i in range(1, n - 3)]
        edges.append((n - 2, n))
        return from_edges(n, edges)
    if (n, r) == (6, 3):
        return join(complete(3), disjoint_union([isolated(1), complete(2)]))
    base = path(r) if r == n - 3 else disjoint_union([path(r), isolated(n - r - 3)])
    return join(base, isolated(3))


def reg3_witness(n: int, p: int) -> Graph:
    """Graph with reg = 3 and pd = p, following the cone recursion."""
    if n < 4 or not n - 3 <= p <= 2 * n - 5:
        raise ValueError(f"need n >= 4 and n-3 <= p <= 2n-5, got n={n}, p={p}")
    if n == 4:
        return {
            1: disjoint_union([path(2), path(2)]),
            2: cone(disjoint_union([path(2), isolated(1)])),
            3: join(path(2), isolated(2)),
        }[p]
    if p == 2 * n - 5:
        return max_pd_witness(n, 3)
    if p == 2 * n - 6 and n >= 6:
        return second_max_pd_witness(n, 3)
    if p == n - 3:
        return disjoint_union([complete(2), complete(n - 2)])
    return cone(reg3_witness(n - 1, p - 2))


def near_max_reg_witness(n: int, p: int) -> Graph:
    """Graph with reg = n-2 and pd = p.

    Small p comes from disjoint unions of paths and a triangle, p = n-2
    from a path wearing two pendant triangles, and p >= n-1 from a path
    joined to an apex plus a partial fan whose width m = 2n-4-p tunes the
    projective dimension.
    """
    if n < 6 or not n - 4 <= p <= 2 * n - 5:
        raise ValueError(f"need n >= 6 and n-4 <= p <= 2n-5, got n={n}, p={p}")
    if p == n - 4:
        return disjoint_union([path(2), path(2), path(n - 4)])
    if p == n - 3:
        return disjoint_union([complete(3), path(n - 3)])
    if p == n - 2:
        edges = [(i, i + 1) for i in range(1, n - 2)]
        edges += [(1, n - 1), (2, n - 1), (2, n), (3, n)]
        return from_edges(n, edges)
    m = 2 * n - 4 - p
    edges = [(i, i + 1) for i in range(1, n - 2)]
    edges += [(i, n - 1) for i in range(m, n - 1)]
    edges += [(i, n) for i in range(1, n - 1)]
    return from_edges(n, edges)


# -- the closed-form size sets ---------------------------------------------------


def pdreg_closed_form(n: int) -> frozenset[tuple[int, int]]:
    """The determined part of the Betti-table size set at n.

    Two extreme pairs plus two rectangles of pairs; the reg = n-1 slice is
    undetermined in general and the formula produces none of it for n >= 5
    (at n = 3 and n = 4 the small ranges happen to include reg = n-1 pairs,
    which are genuine and realizable there).
    """
    if n < 3:
        raise ValueError("the size classification starts at n = 3")
    pairs = {(n - 2, 2), (n - 2, n)}
    for r in range(3, n // 2 + 2):
        for p in range(n - r, 2 * n - 4):
            pairs.add((p, r))
    for r in range((n + 1) // 2 + 1, n - 1):
        for p in range(r - 2, 2 * n - 4):
            pairs.add((p, r))
    return frozenset(pairs)


def connected_pdreg_closed_form(n: int) -> frozenset[tuple[int, int]]:
    """Same for connected graphs: pd is then at least n-2."""
    if n < 3:
        raise ValueError("the size classification starts at n = 3")
    pairs = {(n - 2, 2), (n - 2, n)}
    for r in range(3, n - 1):
        for p in range(n - 2, 2 * n - 4):
            pairs.add((p, r))
    return frozenset(pairs)


# -- the realizer ------------------------------------------------------------------


@dataclass(frozen=True)
class RealizeCert:
    graph: Graph
    claimed: PdRegPair
    trace: tuple[str, ...]


def _dispatch(n: int, p: int, r: int) -> tuple[Graph, list[str]]:
    if r == 2:
        return complete(n), ["complete"]
    if r == n:
        return path(n), ["path"]
    if r == 3:
        return reg3_witness(n, p), [f"reg3(n={n},p={p})"]
    if r == n - 2 and n >= 6:
        return near_max_reg_witness(n, p), [f"near_max_reg(n={n},p={p})"]
    if p == 2 * n - 5:
        return max_pd_witness(n, r), [f"max_pd(n={n},r={r})"]
    if p == 2 * n - 6:
        return second_max_pd_witness(n, r), [f"second_max_pd(n={n},r={r})"]
    if p >= n - 1:
        inner = realize(n - 1, p - 2, r, connected_required=True, verify=False)
        return cone(inner.graph), ["cone"] + list(inner.trace)
    if p == n - 2 and r == n - 3:
        base = disjoint_union([path(n - 4), complete(3)])
        return cone(base), [f"cone(path({n - 4})+triangle)"]
    if p == n - 2:
        inner = realize(n - 3, p - 3, r - 1, verify=False)
        base = disjoint_union([inner.graph, complete(2)])
        return cone(base), ["cone(edge_union)"] + list(inner.trace)
    inner = realize(n - 2, p - 1, r - 1, verify=False)
    return disjoint_union([inner.graph, complete(2)]), ["edge_union"] + list(
        inner.trace
    )


def realize(
    n: int,
    p: int,
    r: int,
    connected_required: bool = False,
    verify: bool = True,
) -> RealizeCert:
    """Witness graph on n non-isolated vertices with pd = p and reg = r.

    Pairs outside the closed-form set are refused, with a dedicated message
    for the undetermined reg = n-1 slice, and so is n above the vertex
    ceiling of ``Graph``.  With ``connected_required`` the pair
    additionally needs p >= n-2, and the dispatch then only crosses
    connected constructions.  With ``verify`` (the default) the witness's
    invariants are recomputed from scratch before the certificate is issued.
    """
    if n < 3:
        raise RealizeError("realization starts at n = 3")
    if n > MAX_VERTICES:
        raise RealizeError(f"n = {n} exceeds the vertex ceiling {MAX_VERTICES}")
    if (p, r) not in pdreg_closed_form(n):
        if r == n - 1:
            raise RealizeError(
                f"reg = {r} = n-1 at n = {n}: this slice is undetermined"
            )
        raise RealizeError(f"({p}, {r}) is not a Betti-table size at n = {n}")
    if connected_required and p < n - 2:
        raise RealizeError(
            f"no connected witness: connected graphs on {n} vertices have pd >= {n - 2}"
        )
    graph, trace = _dispatch(n, p, r)
    if verify:
        got = pd_reg(graph)
        if got != (p, r):
            raise RealizeError(
                f"construction for ({p}, {r}) at n = {n} recomputed to {got}"
            )
        if graph.n != n or graph.has_isolated_vertex():
            raise RealizeError("witness does not live on n non-isolated vertices")
    if connected_required and not graph.is_connected():
        raise RealizeError("dispatch produced a disconnected witness")
    return RealizeCert(graph, PdRegPair(p, r), tuple(trace))
