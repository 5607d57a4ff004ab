"""Finite simple graphs on small labelled vertex sets.

Vertices carry labels 1..n.  Adjacency is stored as n bitrows: bit ``u-1``
of ``rows[v-1]`` is set iff {u, v} is an edge.  All operations below are
pure; a ``Graph`` is immutable and hashable, so values can be shared freely
(including across worker processes).

The vertex ceiling of 31 keeps a vertex subset, and the 2n monomial slots
used downstream, inside a single machine word each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

MAX_VERTICES = 31


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with vertex labels 1..n."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i + 1} has bits outside 1..{self.n}")
            if row >> i & 1:
                raise ValueError(f"loop at vertex {i + 1}")
            for j in _bits(row):
                if not self.rows[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at {{{i + 1},{j + 1}}}")

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors_mask(self, v: int) -> int:
        return self.rows[v - 1]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(b + 1 for b in _bits(self.rows[v - 1]))

    def degree(self, v: int) -> int:
        return self.rows[v - 1].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            row = self.rows[i] >> (i + 1) << (i + 1)
            out.extend((i + 1, j + 1) for j in _bits(row))
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, r in enumerate(self.rows) if not r)

    def has_isolated_vertex(self) -> bool:
        return any(not r for r in self.rows)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for b in _bits(frontier):
                nxt |= self.rows[b]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- constructors ---------------------------------------------------------


def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Graph on vertices 1..n with the given edge list."""
    rows = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ValueError(f"bad edge {{{u},{v}}} on {n} vertices")
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(rows))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def isolated(n: int) -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    return Graph(n, (0,) * n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("need n >= 3")
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


# -- composition ----------------------------------------------------------


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Concatenate vertex blocks, shifting labels left to right."""
    if not parts:
        raise ValueError("need at least one part")
    rows: list[int] = []
    shift = 0
    for g in parts:
        rows.extend(r << shift for r in g.rows)
        shift += g.n
    return Graph(shift, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex blocks."""
    if g1.n < 1 or g2.n < 1:
        raise ValueError("join needs two nonempty graphs")
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    rows = [r | mask2 for r in g1.rows]
    rows += [(r << g1.n) | mask1 for r in g2.rows]
    return Graph(g1.n + g2.n, tuple(rows))


def cone(g: Graph) -> Graph:
    """Join with a single new vertex (labelled n+1)."""
    return join(g, isolated(1))


# -- subgraphs and complements -------------------------------------------


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph, relabelled 1..|W| in ascending original order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph on empty vertex set")
    if vs[0] < 1 or vs[-1] > g.n:
        raise ValueError("vertex set not contained in the graph")
    pos = {v: i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        row = 0
        for u in _bits(g.rows[v - 1]):
            if u + 1 in pos:
                row |= 1 << pos[u + 1]
        rows.append(row)
    return Graph(len(vs), tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & ~(1 << i) for i, r in enumerate(g.rows)))


# -- structure predicates --------------------------------------------------


def is_complete(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n * (g.n - 1) // 2


def is_path_graph(g: Graph) -> bool:
    if g.n == 1:
        return True
    return (
        g.is_connected()
        and g.edge_count == g.n - 1
        and max(g.degree(v) for v in g.vertices) <= 2
    )


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components, each ascending, ordered by least label."""
    seen = 0
    comps = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for b in _bits(frontier):
                nxt |= g.rows[b]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(tuple(b + 1 for b in _bits(comp)))
    return tuple(comps)


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects g.

    Exhaustive subset search, so restricted to n <= 12.  For complete graphs
    the usual convention n-1 is returned.
    """
    if not g.is_connected():
        raise ValueError("vertex connectivity needs a connected graph")
    if is_complete(g):
        return g.n - 1
    if g.n > 12:
        raise ValueError("exhaustive connectivity search restricted to n <= 12")
    for size in range(1, g.n - 1):
        for cut in itertools.combinations(g.vertices, size):
            rest = [v for v in g.vertices if v not in cut]
            if not induced_subgraph(g, rest).is_connected():
                return size
    raise AssertionError("non-complete connected graph must have a cut set")


# -- relabelling and canonical forms ----------------------------------------


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel with perm, where perm[i] is the new label of old vertex i+1."""
    if sorted(perm) != list(g.vertices):
        raise ValueError("perm must be a permutation of 1..n")
    rows = [0] * g.n
    for old in g.vertices:
        new = perm[old - 1]
        for b in _bits(g.rows[old - 1]):
            rows[new - 1] |= 1 << (perm[b] - 1)
    return Graph(g.n, tuple(rows))


def breadth_first(g: Graph) -> Graph:
    """Relabel g 1..n in breadth-first visiting order.

    The search starts at a vertex of least degree (lowest label on ties) and
    visits neighbours in increasing label; each further component starts at
    its own least-degree unvisited vertex.  The result is isomorphic to g.

    This labelling exists for cost, as ``canonical_form`` exists for
    deduplication.  The Betti numbers of J_G are isomorphism invariants, and
    pd and reg of J_G equal those of S/in_<(J_G) under any labelling because
    that initial ideal is squarefree (Conca-Varbaro 2020).  The size of the
    initial ideal, and so the work in Hochster's formula, does depend on the
    labelling: on the n = 6 atlas the breadth-first labels give 1,381
    generators where the canonical labels give 2,199.
    """
    by_degree = sorted(range(g.n), key=lambda v: (g.rows[v].bit_count(), v))
    order: list[int] = []
    seen = 0
    for start in by_degree:
        if seen >> start & 1:
            continue
        seen |= 1 << start
        head = len(order)
        order.append(start)
        while head < len(order):
            fresh = g.rows[order[head]] & ~seen
            head += 1
            seen |= fresh
            order.extend(_bits(fresh))
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new + 1
    return relabel(g, perm)


def _twin_masks(rows: Sequence[int]) -> list[int]:
    """mask[v]: the vertices u != v that are twins of v (0-based bits).

    u and v are twins when they have the same neighbours outside {u, v},
    adjacent or not.  Swapping two twins is then an automorphism that fixes
    every other vertex.  Being twins is an equivalence relation: a vertex
    with a non-adjacent twin u and an adjacent twin w would have w as a
    neighbour of u, so u in N[w] = N[v], a contradiction.
    """
    n = len(rows)
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Twin classes of g, each ascending, ordered by least label."""
    masks = _twin_masks(g.rows)
    seen = 0
    out = []
    for v in range(g.n):
        if not seen >> v & 1:
            block = masks[v] | 1 << v
            seen |= block
            out.append(tuple(b + 1 for b in _bits(block)))
    return tuple(out)


def _min_order(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex order (0-based) realising the lexicographically least key.

    The key of an order p is the tuple (c_0, ..., c_{n-1}) where the column
    c_k encodes the adjacency of p[k] to p[0..k-1], bit i for p[i].  A
    depth-first search places one vertex per level and visits only part of
    the tree, without changing which key is least:

    - Given the placed prefix, every completion whose next column is the
      least column among the free vertices beats every completion whose
      next column is larger, so only the free vertices of least column are
      expanded.
    - Among those, one vertex per twin class is expanded.  Swapping two
      free twins u and v is an automorphism of the graph that fixes every
      placed vertex, so it maps the completions after u onto those after v
      with the same keys: both subtrees reach the same set of keys.
    - A prefix whose columns exceed the incumbent's is cut.

    The columns of the free vertices are kept up to date as vertices are
    placed, over a bitmask of the free vertices.
    """
    if n <= 1:
        return tuple(range(n))
    twins = _twin_masks(rows)
    col = [0] * n
    key: list[int] = []
    order: list[int] = []
    best_key: list[int] = []
    best_order: list[int] = []

    def dfs(free: int) -> None:
        nonlocal best_key, best_order
        if not free:
            if not best_key or key < best_key:
                best_key = key[:]
                best_order = order[:]
            return
        least = n
        cand = 0
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            c = col[low.bit_length() - 1]
            if cand == 0 or c < least:
                least, cand = c, low
            elif c == least:
                cand |= low
        k = len(key)
        if best_key and least > best_key[k] and key == best_key[:k]:
            return
        key.append(least)
        bit = 1 << k
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand &= ~(low | twins[v])
            left = free ^ low
            nbrs = rows[v] & left
            m = nbrs
            while m:
                u = m & -m
                m ^= u
                col[u.bit_length() - 1] |= bit
            order.append(v)
            dfs(left)
            order.pop()
            m = nbrs
            while m:
                u = m & -m
                m ^= u
                col[u.bit_length() - 1] ^= bit
        key.pop()

    dfs((1 << n) - 1)
    return tuple(best_order)


@lru_cache(maxsize=65536)
def _canonical_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    order = _min_order(n, rows)
    new = [0] * n
    pos = {v: i for i, v in enumerate(order)}
    for old, p in pos.items():
        for b in _bits(rows[old]):
            new[p] |= 1 << pos[b]
    return tuple(new)


def canonical_form(g: Graph) -> Graph:
    """Canonical relabelling: equal outputs exactly for isomorphic inputs."""
    return Graph(g.n, _canonical_rows(g.n, g.rows))


def _packed(n: int, rows: Sequence[int]) -> tuple[int, int]:
    # Bit j(j-1)/2 + i is the pair {i, j}, i < j: row j's bits below j, shifted.
    key = 0
    for j in range(1, n):
        key |= (rows[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return (n, key)


def packed_key(g: Graph) -> tuple[int, int]:
    """(n, packed upper triangle of g under its own labels).

    Equals ``canon_key(g)`` when g is canonical, without a second search.
    """
    return _packed(g.n, g.rows)


def canon_key(g: Graph) -> tuple[int, int]:
    """(n, packed upper triangle of the canonical form), a total order."""
    return _packed(g.n, _canonical_rows(g.n, g.rows))
