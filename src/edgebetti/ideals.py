"""Squarefree monomial ideals attached to a graph's binomial edge ideal.

The ambient ring for a graph on n vertices is K[x_1..x_n, y_1..y_n], encoded
as 2n bit slots: slot k (0-based, k < n) is x_{k+1} and slot n+k is y_{k+1}.
A squarefree monomial is the bitmask of its support.

With the lexicographic order x_1 > ... > x_n > y_1 > ... > y_n the leading
term of the edge binomial x_i y_j - x_j y_i (i < j) is x_i y_j.  The reduced
Groebner basis is indexed by *admissible* paths (Herzog, Hibi, Hreinsdottir,
Kahle, Rauf, "Binomial edge ideals and conditional independence statements",
2010, Thm 2.1): paths i = v_0, v_1, ..., v_r = j with i < j, every interior
vertex outside the interval [i, j], and no chord.  The path contributes the
minimal generator x_i y_j times x_v for each interior v > j and y_v for
each interior v < i.

``initial_ideal`` lists exactly these paths with a depth-first search from
i that keeps the path induced as it grows, by two rules:

* step from u to v only when v lies outside [i, j], is not yet on the path,
  and is adjacent to no path vertex other than u;
* when u is adjacent to j, emit the path and do not extend past u, since
  any longer path from u would have the chord u-j.

Chordless is the same as minimal here: a chord gives an i-j path on a
proper subset of the interior (a divisor), and an induced path is the only
i-j path in its own induced subgraph.  The search therefore emits an
antichain without duplicates, and ``MonomialIdeal``'s minimalisation is only
a check.  The tests compare the result with the leading terms of
``sympy.groebner(..., order='lex')`` and with a brute-force enumeration of
all exterior-interval paths followed by minimalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, _bits

# Hochster's formula holds the union closure of the generator supports as a
# bitset over all 2**k subsets of the k active slots (128 KiB at k = 20), and
# builds a nonface table over 2**m masks for each residue on m <= k slots.
# This budget bounds those two, not the run time: on one core K_11 (exactly
# 20 slots) takes 8 to 10 s at a 19 MB peak RSS, nearly all of it in the
# homology of its 466,031 subsets (the closure itself takes 60 ms), and
# leaves no residue.
MAX_ACTIVE_SLOTS = 20


def x_slot(i: int) -> int:
    return i - 1


def y_slot(i: int, n: int) -> int:
    return n + i - 1


def minimalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Antichain of minimal elements under divisibility (bitmask subset)."""
    items = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in items:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal given by its minimal generating antichain."""

    num_vars: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        full = (1 << self.num_vars) - 1
        for g in self.generators:
            if g & ~full:
                raise ValueError("generator uses slots outside the ring")
        object.__setattr__(self, "generators", minimalize(self.generators))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return self.generators == (0,)

    def contains_monomial(self, mask: int) -> bool:
        return any(g & ~mask == 0 for g in self.generators)


# -- generators from graphs --------------------------------------------------


def _admissible_masks(g: Graph, i: int, j: int) -> list[int]:
    """Generator masks of the admissible paths from i to j (i < j).

    ``close`` is the union of the closed neighbourhoods of the path vertices
    before the current end u: a candidate v in it would close a chord.
    """
    n = g.n
    outside = 0
    for v in g.vertices:
        if v < i or v > j:
            outside |= 1 << (v - 1)
    jbit = 1 << (j - 1)
    masks: list[int] = []

    def walk(u: int, close: int, m: int) -> None:
        row = g.neighbors_mask(u)
        if row & jbit:
            masks.append(m)
            return
        close_u = close | row | (1 << (u - 1))
        for b in _bits(row & outside & ~close):
            v = b + 1
            walk(v, close_u, m | 1 << (x_slot(v) if v > j else y_slot(v, n)))

    walk(i, 0, (1 << x_slot(i)) | (1 << y_slot(j, n)))
    return masks


def initial_ideal(g: Graph) -> MonomialIdeal:
    """Lex initial ideal of the binomial edge ideal, as a squarefree ideal."""
    n = g.n
    masks = []
    for i in g.vertices:
        for j in range(i + 1, n + 1):
            masks.extend(_admissible_masks(g, i, j))
    return MonomialIdeal(2 * n, tuple(masks))


# -- Stanley-Reisner nonfaces -----------------------------------------------


def mark_supersets(gens: Iterable[int], nslots: int) -> bytearray:
    """Table over all 2**nslots masks: 1 iff the mask contains a generator."""
    if nslots > MAX_ACTIVE_SLOTS:
        raise ValueError(f"subset table over {nslots} slots exceeds the budget")
    table = bytearray(1 << nslots)
    full = (1 << nslots) - 1
    for g in gens:
        free = full & ~g
        s = free
        while True:
            table[g | s] = 1
            if s == 0:
                break
            s = (s - 1) & free
    return table

