"""The Koszul oracle for the Betti tables of ``betti``; no production use.

An independent cross-check computes Tor_i(S/I, K)_j as homology of the
Koszul complex on all variables tensored with S/I, one squarefree
multidegree strand at a time, with no pruning.  Its table and Hochster's
must agree entry for entry; the acceptance tests enforce that on graph
ideals and on random squarefree ideals.

The oracle keeps its own construction: it uses only the ideal's membership
test, the rank entry points of ``linalg`` and ``BettiTable``, never
Hochster's formula, its reductions or ``homology``.
"""

from __future__ import annotations

from .betti import BettiTable
from .ideals import MonomialIdeal
from .linalg import parse_field, rank_mod_p, rank_rational


def betti_table_koszul(ideal: MonomialIdeal, field: str = "q") -> BettiTable:
    """Betti table of S/I from Koszul-complex strands; the oracle route.

    Iterates every squarefree multidegree a: the strand in homological
    degree i has basis {e_F tensor x^(a-F) : F subset a, |F| = i, x^(a-F)
    not in I}; the differential multiplies one exterior slot back in and
    kills terms landing in I.  No subset pruning: this route stays simple
    and slow on purpose.
    """
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    kind, p = parse_field(field)
    m = ideal.num_vars
    if m > 16:
        raise ValueError("the Koszul route is an oracle for small rings only")
    in_ideal = bytearray(1 << m)
    for mask in range(1 << m):
        if ideal.contains_monomial(mask):
            in_ideal[mask] = 1
    entries: dict[tuple[int, int], int] = {}
    for a in range(1 << m):
        na = a.bit_count()
        basis: list[list[int]] = [[] for _ in range(na + 1)]
        s = a
        while True:
            if not in_ideal[a ^ s]:
                basis[s.bit_count()].append(s)
            if s == 0:
                break
            s = (s - 1) & a
        ranks = [0] * (na + 2)
        for c in range(1, na + 1):
            if not basis[c] or not basis[c - 1]:
                continue
            idx = {f: i for i, f in enumerate(basis[c - 1])}
            rows = []
            for f in basis[c]:
                row = {}
                sign = 1  # (-1)^k for the k-th slot of f, lowest first
                t = f
                while t:
                    low = t & -t
                    f2 = f ^ low
                    if not in_ideal[a ^ f2]:
                        row[idx[f2]] = sign
                    sign = -sign
                    t ^= low
                rows.append(row)
            ranks[c] = rank_rational(rows) if kind == "q" else rank_mod_p(rows, p)
        for c in range(na + 1):
            dim_tor = len(basis[c]) - ranks[c] - ranks[c + 1]
            if dim_tor:
                key = (c, na)
                entries[key] = entries.get(key, 0) + dim_tor
    return BettiTable(m, field, entries)
