"""Squarefree monomial ideals attached to a graph's binomial edge ideal.

The ambient ring for a graph on n vertices is K[x_1..x_n, y_1..y_n], encoded
as 2n bit slots: slot k (0-based, k < n) is x_{k+1} and slot n+k is y_{k+1}.
A squarefree monomial is the bitmask of its support.

With the lexicographic order x_1 > ... > x_n > y_1 > ... > y_n the leading
term of the edge binomial x_i y_j - x_j y_i (i < j) is x_i y_j, and the
leading terms of the full Groebner basis are indexed by paths between i and
j whose interior vertices all lie outside the interval [i, j]: the interior
vertices above j contribute their x, the ones below i their y.  That
combinatorial description is what ``initial_ideal`` enumerates; it is
exercised against a hand-run Buchberger computation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, _bits

# Exhaustive subset machinery below allocates 2**k tables; 20 active slots
# (a graph on 10 vertices) is far beyond every desk-scale use in this repo.
MAX_ACTIVE_SLOTS = 20


def x_slot(i: int) -> int:
    return i - 1


def y_slot(i: int, n: int) -> int:
    return n + i - 1


def monomial_str(mask: int, n: int | None = None) -> str:
    """Readable form of a monomial mask, e.g. "x1*y2" for slots over 2n."""
    if not mask:
        return "1"
    names = []
    for b in _bits(mask):
        if n is not None:
            names.append(f"x{b + 1}" if b < n else f"y{b - n + 1}")
        else:
            names.append(f"z{b + 1}")
    return "*".join(names)


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

    def pretty(self, n: int | None = None) -> str:
        return "(" + ", ".join(monomial_str(g, n) for g in self.generators) + ")"


# -- generators from graphs --------------------------------------------------


def _exterior_interval_paths(g: Graph, i: int, j: int) -> Iterator[tuple[int, ...]]:
    """Paths i -> j with distinct vertices, interiors all < i or > j.

    Yields the interior vertex sequences (possibly empty when {i,j} is an
    edge).
    """
    allowed = 0
    for v in g.vertices:
        if v < i or v > j:
            allowed |= 1 << (v - 1)

    stack: list[int] = []

    def walk(u: int, visited: int) -> Iterator[tuple[int, ...]]:
        row = g.neighbors_mask(u)
        if row >> (j - 1) & 1:
            yield tuple(stack)
        for b in _bits(row & allowed & ~visited):
            stack.append(b + 1)
            yield from walk(b + 1, visited | (1 << b))
            stack.pop()

    yield from walk(i, 1 << (i - 1))


def initial_ideal(g: Graph) -> MonomialIdeal:
    """Lex initial ideal of the binomial edge ideal, as a squarefree ideal."""
    n = g.n
    masks = []
    for i in g.vertices:
        for j in range(i + 1, n + 1):
            for interior in _exterior_interval_paths(g, i, j):
                m = (1 << x_slot(i)) | (1 << y_slot(j, n))
                for k in interior:
                    m |= 1 << (x_slot(k) if k > j else y_slot(k, n))
                masks.append(m)
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

