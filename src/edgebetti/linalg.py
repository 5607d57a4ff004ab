"""Exact matrix ranks over the rationals, GF(2) and GF(p).

One sparse eliminator, ``_rank``, serves every signed matrix: over GF(p)
for a prime p, and over Q when p = 0.  Both Betti routes reach it through
``rank_rational`` and ``rank_mod_p``, which take dense integer rows.  GF(2)
has its own kernel, ``rank_gf2``, on rows packed into Python ints.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def _rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), or over Q when p == 0, of sparse rows {column: value}.

    Each step pivots on the sparsest row holding a unit entry: any nonzero
    entry over GF(p), +-1 over Q, so row operations stay integral.  Over Q
    a core with no +-1 entry left is finished without fractions: row r
    becomes a*r - m*pivot, for the pivot entry a and r's entry m in the
    pivot column, and a != 0 keeps the span.  The row is then divided by
    the gcd of its entries; a row reduced against pivots in k columns is,
    up to a scalar, its vector of (k+1)-minors (Cramer), so the primitive
    row is bounded by those minors and entries cannot blow up.
    """
    if p:
        rows = [{j: v % p for j, v in r.items() if v % p} for r in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        best, col = -1, None
        for i, r in enumerate(rows):
            if best < 0 or len(r) < len(rows[best]):
                for j, v in r.items():
                    if p or v == 1 or v == -1:
                        best, col = i, j
                        break
        if col is None:  # over Q, no +-1 entry left
            best = min(range(len(rows)), key=lambda i: len(rows[i]))
            col = next(iter(rows[best]))
        piv = rows.pop(best)
        a = piv[col]
        scale = not p and a != 1 and a != -1
        inv = pow(a, -1, p) if p else a  # a == +-1 is its own inverse
        remaining = []
        for r in rows:
            m = r.get(col)
            if m is not None:
                if scale:
                    for j in r:
                        r[j] *= a
                else:
                    m *= inv
                for j, v in piv.items():
                    nv = r.get(j, 0) - m * v
                    if p:
                        nv %= p
                    if nv:
                        r[j] = nv
                    elif j in r:
                        del r[j]
                if scale and r:
                    g = gcd(*r.values())
                    for j in r:
                        r[j] //= g
            if r:
                remaining.append(r)
        rows = remaining
        rank += 1
    return rank


def _sparse(mat: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    return [{j: v for j, v in enumerate(r) if v} for r in mat]


def rank_rational(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over Q."""
    return _rank(_sparse(mat), 0)


def rank_mod_p(mat: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p), p prime."""
    return _rank(_sparse(mat), p)


def rank_gf2(rows: Sequence[int], pivots: dict[int, int] | None = None) -> int:
    """Rank over GF(2) of rows packed as int bitmasks.

    Each row is reduced by the earlier pivot rows until its lowest set bit
    is new; it is then kept as the pivot for that bit.  The rank is the
    number of pivots.  A caller that passes an empty dict as ``pivots``
    gets them back, keyed by lowest bit: the keys are distinct columns, and
    each value is a combination of the input rows.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        r = row
        while r:
            low = r & -r
            if low in pivots:
                r ^= pivots[low]
            else:
                pivots[low] = r
                break
    return len(pivots)


def parse_field(field: str) -> tuple[str, int]:
    """Normalise a field tag to ("q", 0) or ("fp", p)."""
    tag = field.strip().lower()
    if tag in ("q", "qq", "rationals"):
        return ("q", 0)
    if tag.startswith("f"):
        body = tag.removeprefix("fp:").removeprefix("f")
        if body.isdigit():
            p = int(body)
            if p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1)):
                return ("fp", p)
    raise ValueError(f"unknown field tag {field!r}; use q, f2 or fp:<prime>")
