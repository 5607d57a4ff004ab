"""Exact matrix ranks over the rationals, GF(2) and GF(p).

The rational rank uses fraction-free (Bareiss) elimination on integer rows,
so every intermediate value is an exact integer.  GF(2) works on rows packed
into Python ints.  These are the only linear-algebra kernels in the package;
both Betti-number routes build their own matrices but share these ranks.
"""

from __future__ import annotations

from typing import Sequence


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination; exact divisions."""
    if not rows:
        return 0
    ncols = len(rows[0])
    nrows = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv_row = rows[rank]
        pv = piv_row[col]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            vi = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (pv * ri[j] - vi * piv_row[j]) // prev
            ri[col] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_rational(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over Q.

    Sparse elimination on +-1 pivots first: such row operations are integer
    and need no fraction-free bookkeeping, and boundary-style matrices almost
    always keep offering unit pivots.  Whatever core survives without a unit
    entry is densified and finished by Bareiss.
    """
    rows: list[dict[int, int]] = []
    for r in mat:
        d = {j: v for j, v in enumerate(r) if v}
        if d:
            rows.append(d)
    rank = 0
    while rows:
        best = None  # (nnz, index) of a row holding a unit entry
        for idx, r in enumerate(rows):
            if any(v == 1 or v == -1 for v in r.values()):
                key = (len(r), idx)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        idx = best[1]
        piv = rows.pop(idx)
        col = next(j for j, v in piv.items() if v == 1 or v == -1)
        a = piv[col]
        remaining = []
        for r in rows:
            m = r.get(col)
            if m is not None:
                m *= a
                for j, v in piv.items():
                    nv = r.get(j, 0) - m * v
                    if nv:
                        r[j] = nv
                    elif j in r:
                        del r[j]
            if r:
                remaining.append(r)
        rows = remaining
        rank += 1
    if not rows:
        return rank
    cols = sorted({j for r in rows for j in r})
    pos = {j: i for i, j in enumerate(cols)}
    dense = [[0] * len(cols) for _ in rows]
    for i, r in enumerate(rows):
        for j, v in r.items():
            dense[i][pos[j]] = v
    return rank + _bareiss_rank(dense)


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


def rank_mod_p(mat: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) by straightforward modular elimination."""
    rows = [[x % p for x in r] for r in mat]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        piv_row = [x * inv % p for x in rows[rank]]
        rows[rank] = piv_row
        for i in range(rank + 1, nrows):
            vi = rows[i][col]
            if vi:
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - vi * piv_row[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


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
