"""Exact matrix ranks over the rationals and every GF(p).

Every matrix arrives as its rows, never dense: dicts {column: integer
value} holding only the nonzero entries.  One sparse eliminator, ``_rank``,
serves every field: GF(p) for a prime p, p = 2 included, and Q when p = 0,
where it works fraction-free.  ``rank_rational``, ``rank_gf2`` and
``rank_mod_p`` are one-line entry points over it.  The input rows are never
modified.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def _rank(rows: Sequence[dict[int, int]], p: int) -> int:
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
    else:
        rows = [dict(r) for r in rows]  # reduced in place below
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


def rank_rational(rows: Sequence[dict[int, int]]) -> int:
    """Rank over Q of integer sparse rows {column: value}."""
    return _rank(rows, 0)


def rank_gf2(rows: Sequence[dict[int, int]]) -> int:
    """Rank over GF(2) of integer sparse rows {column: value}."""
    return _rank(rows, 2)


def rank_mod_p(rows: Sequence[dict[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of integer sparse rows {column: value}."""
    return _rank(rows, p)


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
