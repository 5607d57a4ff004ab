"""Graded Betti tables of S/I for squarefree monomial ideals I.

The table comes from Hochster's formula: for a squarefree I with
Stanley-Reisner complex D on the variable slots,

    beta_{i,W}(S/I) = dim_K H~_{|W|-i-1}(D_W; K)

summed over slot subsets W of size j to give beta_{i,j}.  Only subsets that
are unions of generator supports can contribute: any other W has a vertex
lying in no generator inside W, which is a cone point of D_W.  The union
closure of the generator supports is therefore the whole iteration space.

The closure is held as a bitset, one int over all 2**k masks of the k
active slots, and its members are read off that int one at a time; no set
or list of W is built.  As a set and then a sorted list, K_11's 466,031
unions peaked at 41.7 MiB under tracemalloc, about 94 bytes per member; the
bitset costs 2**k bits (128 KiB at the 20-slot cap) whatever the closure's
size, and K_11's peaks at 0.7 MiB.  Adding a generator builds one
clear-slot mask of that size per slot it uses.  The increasing order of the
members is the order the memo below sees W in.

Many W restrict to the same complex up to relabelling, so each call keeps a
memo from a subideal key to the homology vector of D_W.  The key is sound:
D_W is fixed by the generators inside W (its minimal nonfaces) and W; and
squeezing W's slots onto 0..|W|-1 in their order is a relabelling, which
keeps homology.  Two complexes with the same squeezed generator list
therefore have the same homology.  The memo lives for one call only, so no
result depends on call order, on ``--jobs`` or on resuming a run.  Its key
is one packed int rather than a tuple of generator ints, because a tuple
keeps one object per generator for every key: on the atlas6 and
compute_mix benchmark workloads tuple keys raised peak RSS by 2.5 and 3.9
MB, packed ints by 0.1 and 0.2 MB.

H~(D_W) is computed by recursion on the minimal nonfaces G, without
building faces unless no rule below applies.  A singleton nonface {u}
means u is not a vertex, so u leaves W.  Then D_W = {emptyset} when W is
empty (H~_{-1} = 1), and a vertex of W in no nonface is a cone point, so
D_W is acyclic.  Otherwise, for a vertex v,

    D_W = del(v) u star(v),    del(v) n star(v) = lk(v),

where del(v) has the nonfaces in G that avoid v, lk(v) lives on W - v with
the minimal elements of {g - v : g in G} as nonfaces, and star(v), a cone
on v, is acyclic.  The Mayer-Vietoris sequence of this union (exact in
dimension -1 too, since every complex here holds the empty face) gives:

* R1, link cone: if some vertex of lk(v) lies in no nonface of lk(v), then
  lk(v) is a cone, hence acyclic, and H~(D_W) = H~(del(v)) = H~(D_{W-v}).
* R2, deletion cone: otherwise, if some u in W - v lies only in nonfaces
  that contain v, then u is a cone point of del(v), and
  H~_d(D_W) = H~_{d-1}(lk(v)).

The vertices are tried in increasing slot order, R1 before R2, and the
first rule that fires is taken.  Both isomorphisms hold over the integers,
so the recursion is the same over every field.  Only a complex on which no
rule fires (a residue) has its faces enumerated, over its own slots, and
its homology computed from boundary ranks.  Every complex met on the way,
residues and R2's links included, goes through the memo.

The table is for the quotient S/I.  The invariants of a graph's binomial
edge ideal J itself are derived at the boundary:

    proj dim(J) = proj dim(S/J) - 1,    reg(J) = reg(S/J) + 1,

and transfer from the lex initial ideal to J is exact because that initial
ideal is squarefree (the one imported external theorem in this package; the
verification suite cross-checks the published catalogue values).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .graphs import Graph
from .homology import homology_from_faces
from .ideals import MAX_ACTIVE_SLOTS, MonomialIdeal, initial_ideal, mark_supersets
from .linalg import parse_field


class EdgelessGraphError(ValueError):
    """The binomial edge ideal of an edgeless graph is zero: no Betti table."""


class PdRegPair(NamedTuple):
    pd: int
    reg: int


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j}(S/I)."""

    num_vars: int
    field: str
    entries: dict[tuple[int, int], int]

    @property
    def quotient_pd(self) -> int:
        return max(i for i, _ in self.entries)

    @property
    def quotient_reg(self) -> int:
        return max(j - i for i, j in self.entries)

    def triples(self) -> list[tuple[int, int, int]]:
        return [(i, j, b) for (i, j), b in sorted(self.entries.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.num_vars == other.num_vars and self.entries == other.entries

    def __hash__(self) -> int:
        """Hash of what ``__eq__`` compares, so the field tag is left out."""
        return hash((self.num_vars, frozenset(self.entries.items())))


def _squeeze(g: int, w: int) -> int:
    """g (a subset of w) with each slot renumbered to its rank among w's."""
    c = 0
    while g:
        low = g & -g
        c |= 1 << (w & (low - 1)).bit_count()
        g ^= low
    return c


def _union(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u


def _compress(gens: tuple[int, ...]) -> tuple[list[int], int]:
    """Drop unused slots: slots in no generator are cone points everywhere."""
    used = _union(gens)
    return [_squeeze(g, used) for g in gens], used.bit_count()


def _clear_mask(b: int, nbits: int) -> int:
    """Bitset over the masks 0..nbits-1 (at least one byte's worth): bit m is
    set iff slot b is clear in m."""
    if b < 3:
        pattern = (b"\x55", b"\x33", b"\x0f")[b]
    else:
        half = 1 << (b - 3)
        pattern = b"\xff" * half + b"\x00" * half
    return int.from_bytes(pattern * max(1, nbits // (len(pattern) << 3)), "little")


# The set bit positions of every byte, low to high.
_BIT_POSITIONS = tuple(
    tuple(p for p in range(8) if byte >> p & 1) for byte in range(256)
)


def _union_closure(gens: list[int]) -> Iterator[int]:
    """Every union of generators, the empty one included, once each, in
    increasing order.

    The family is one int over all 2**k masks, k the highest slot in use
    plus one: bit m is set iff m is a union.  The bitset costs 2**k
    bits whatever the family's size, a few temporaries of that size while a
    generator is added, and one clear-slot mask built for each slot of each
    generator and dropped after use (keeping all 20 at the cap would cost
    2.5 MiB).  A sparse family on many slots therefore pays for the empty
    masks: P_10's 512 unions of 2**18 masks take 2 to 3 ms, where a set
    took 0.1 ms.
    """
    k = _union(gens).bit_length()
    if k > MAX_ACTIVE_SLOTS:
        raise ValueError(f"a union closure over {k} slots exceeds the budget")
    nbits = 1 << k
    fam = 1  # the empty union
    for g in gens:
        img = fam
        rest = g
        while rest:
            low = rest & -rest
            rest ^= low
            lacking = img & _clear_mask(low.bit_length() - 1, nbits)
            # Members lacking the slot move up to m | low; the others stay.
            img = lacking << low | (img ^ lacking)
        fam |= img
    for i, byte in enumerate(fam.to_bytes((nbits + 7) >> 3, "little")):
        if byte:
            base = i << 3
            for p in _BIT_POSITIONS[byte]:
                yield base | p


def _subideal_key(w: int, gens: list[int]) -> int:
    """Packed key of the generators inside w, each squeezed onto w's slots.

    A leading 1, then |w| bits per generator inside w, in the order of
    ``gens``; the low 5 bits hold |w| (at most ``MAX_ACTIVE_SLOTS``).
    """
    width = w.bit_count()
    key = 1
    for g in gens:
        if g & w == g:
            key = key << width | _squeeze(g, w)
    return key << 5 | width


def _faces_within(w: int, nonface: bytearray) -> list[list[int]]:
    faces: list[list[int]] = [[] for _ in range(w.bit_count() + 1)]
    s = w
    while True:
        if not nonface[s]:
            faces[s.bit_count()].append(s)
        if s == 0:
            break
        s = (s - 1) & w
    while not faces[-1]:
        faces.pop()  # the empty levels above the largest face
    for level in faces:
        level.reverse()  # submask loop runs descending
    return faces


def _reduced_homology(
    w: int, gens: list[int], field: str, memo: dict[int, list[int]]
) -> list[int]:
    """Reduced homology dims of D_W, indexed by dimension -1, 0, ...

    ``gens`` are the minimal nonfaces inside w, in increasing order; see the
    module docstring for the rules.  Trailing zeros may be left out.
    """
    used = singles = 0
    for g in gens:
        used |= g
        if g & (g - 1) == 0:
            singles |= g
    if singles:  # a singleton nonface {u}: u is not a vertex
        w ^= singles
        used ^= singles
        gens = [g for g in gens if g & (g - 1)]
    if not w:
        return [1]
    if used != w:
        return []  # a cone
    key = _subideal_key(w, gens)
    hvec = memo.get(key)
    if hvec is None:
        hvec = memo[key] = _reduce(w, gens, field, memo)
    return hvec


def _reduce(w: int, gens: list[int], field: str, memo: dict[int, list[int]]) -> list[int]:
    """H~(D_W) for a normalised W: R1 or R2 at the first vertex that admits
    one, else the faces of the residue."""
    rest = w
    while rest:
        v = rest & -rest
        rest ^= v
        others = w ^ v
        cut = [g ^ v for g in gens if g & v]
        avoid = [g for g in gens if not g & v]  # the nonfaces of del(v)
        del_apex = others & ~_union(avoid)
        if not del_apex and not others & ~_union(cut):
            continue  # lk(v)'s nonfaces include cut, so it has no apex either
        # lk(v)'s minimal nonfaces: cut, and the g in avoid containing none of it.
        link = sorted(cut + [g for g in avoid if not any(c & g == c for c in cut)])
        if others & ~_union(link):  # R1: lk(v) is a cone
            return _reduced_homology(others, avoid, field, memo)
        if del_apex:  # R2: del(v) is a cone
            return [0] + _reduced_homology(others, link, field, memo)
    m = w.bit_count()
    nonface = mark_supersets([_squeeze(g, w) for g in gens], m)
    return homology_from_faces(_faces_within((1 << m) - 1, nonface), field)


def betti_table_hochster(ideal: MonomialIdeal, field: str = "q") -> BettiTable:
    """Betti table of S/I via Hochster's formula over the union closure."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    parse_field(field)
    if ideal.is_zero:
        return BettiTable(ideal.num_vars, field, {(0, 0): 1})
    gens, k = _compress(ideal.generators)
    if k > MAX_ACTIVE_SLOTS:
        raise ValueError(f"{k} active slots exceed the exhaustive budget")
    memo: dict[int, list[int]] = {}
    entries: dict[tuple[int, int], int] = {}
    for w in _union_closure(gens):
        hvec = _reduced_homology(w, [g for g in gens if g & w == g], field, memo)
        j = w.bit_count()
        for d, h in enumerate(hvec, start=-1):
            if h:
                key = (j - d - 1, j)
                entries[key] = entries.get(key, 0) + h
    return BettiTable(ideal.num_vars, field, entries)


# -- graph-level invariants ---------------------------------------------------


def graph_betti_table(g: Graph, field: str = "q") -> BettiTable:
    """Betti table of S/in(J) for the binomial edge ideal J of g."""
    if g.edge_count == 0:
        raise EdgelessGraphError("edgeless graph: the ideal is zero")
    # Every edge monomial x_i y_j (i < j) is a minimal generator, so the slots
    # they use bound the active slots from below before any path is searched.
    k = sum(
        (row >> v != 0) + (row & ((1 << (v - 1)) - 1) != 0)
        for v, row in enumerate(g.rows, start=1)
    )
    if k > MAX_ACTIVE_SLOTS:
        raise ValueError(f"at least {k} active slots exceed the exhaustive budget")
    return betti_table_hochster(initial_ideal(g), field)


def pd_reg_of_table(table: BettiTable) -> PdRegPair:
    """(proj dim, regularity) of J from the Betti table of S/in(J)."""
    return PdRegPair(table.quotient_pd - 1, table.quotient_reg + 1)


@lru_cache(maxsize=200000)
def _pd_reg_rows(n: int, rows: tuple[int, ...], field: str) -> PdRegPair:
    return pd_reg_of_table(graph_betti_table(Graph(n, rows), field))


def pd_reg(g: Graph, field: str = "q") -> PdRegPair:
    """(proj dim, regularity) of the binomial edge ideal of g."""
    return _pd_reg_rows(g.n, g.rows, field)
