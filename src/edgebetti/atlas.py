"""Exhaustive enumeration and the empirical Betti-table size atlas.

Isomorphism classes are generated incrementally (extend every class on k
vertices by one vertex, canonicalize, dedupe), which keeps the n = 7 run at
about a thousand classes instead of two million labelled graphs.  A class h
is extended once per twin orbit of neighbourhoods, not with all 2^k masks:
the permutations inside a twin class of h are automorphisms of h, and masks
related by an automorphism of h give isomorphic extensions, so a mask
matters only through how many vertices of each twin class it holds.  That
cuts the canonical forms computed for n <= 6 from 1,306 to 782 and for
n <= 7 from 11,290 to 7,194.  Everything downstream consumes the class
representatives in canonical-key order, so atlases, witnesses and reports
are reproducible run to run and worker-count independent.

Canonical labels exist for deduplication, not for cost.  Hochster's formula
runs on the lex initial ideal, whose size depends on the labelling, while
the pair (pd, reg) does not: the Betti numbers of J_G are isomorphism
invariants, and pd and reg of J_G equal those of S/in_<(J_G) for any
labelling because that initial ideal is squarefree (Conca-Varbaro 2020).
So ``atlas_records`` hands each class to ``pd_reg`` relabelled in
breadth-first order (``graphs.breadth_first``), which on the n = 6 atlas
cuts the generators from 2,199 to 1,381 and the subsets Hochster's formula
visits from 103,575 to 49,548, and keeps the canonical representative in
the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .betti import pd_reg
from .checks import CheckReport
from .families import connected_pdreg_closed_form, pdreg_closed_form
from .graph6 import graph6_encode
from .graphs import (
    Graph,
    breadth_first,
    canonical_form,
    connected_components,
    packed_key,
    twin_classes,
)

EXHAUSTIVE_LIMIT = 7


def _twin_orbit_masks(h: Graph) -> list[int]:
    """One neighbourhood mask per orbit of the twin swaps of h.

    The permutations inside a twin class of h are automorphisms of h, so a
    mask is fixed, up to them, by how many vertices of each class it
    contains: take the first c vertices of each class, for every c.
    """
    masks = [0]
    for block in twin_classes(h):
        prefixes = [0]
        for v in block:
            prefixes.append(prefixes[-1] | 1 << (v - 1))
        masks = [m | p for m in masks for p in prefixes]
    return masks


@lru_cache(maxsize=None)
def _class_reps(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all graphs on n vertices (isolated allowed)."""
    if n == 0:
        return (Graph(0, ()),)
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[tuple[int, int], Graph] = {}
    new_bit = 1 << (n - 1)
    for h in _class_reps(n - 1):
        for mask in _twin_orbit_masks(h):
            rows = [r | new_bit if mask >> b & 1 else r for b, r in enumerate(h.rows)]
            rows.append(mask)
            g = canonical_form(Graph(n, tuple(rows)))
            seen.setdefault(packed_key(g), g)
    return tuple(g for _, g in sorted(seen.items()))


def _pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All graphs on exactly n vertices with no isolated vertex.

    With ``dedup`` one canonical representative per isomorphism class, in
    canonical-key order; otherwise every labelled graph, in edge-mask order.
    """
    if not 1 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration restricted to 1 <= n <= {EXHAUSTIVE_LIMIT}")
    if dedup:
        for g in _class_reps(n):
            if not g.has_isolated_vertex():
                yield g
        return
    pairs = _pair_order(n)
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if mask >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if any(not r for r in rows):
            continue
        yield Graph(n, tuple(rows))


@dataclass(frozen=True)
class AtlasRecord:
    graph: Graph
    pd: int
    reg: int
    connected: bool
    components: int


@dataclass(frozen=True)
class PdRegAtlas:
    n: int
    pairs: frozenset[tuple[int, int]]
    witnesses: dict[tuple[int, int], Graph]


@dataclass(frozen=True)
class Atlas:
    n: int
    field: str
    all_graphs: PdRegAtlas
    connected: PdRegAtlas
    reg_top_slice: frozenset[tuple[int, int]]
    records: tuple[AtlasRecord, ...]


def _record_worker(args: tuple[int, tuple[int, ...], str]) -> tuple[int, int]:
    n, rows, field_tag = args
    return pd_reg(Graph(n, rows), field_tag)


def atlas_records(
    n: int,
    field_tag: str = "q",
    jobs: int = 1,
    dedup: bool = True,
) -> tuple[AtlasRecord, ...]:
    """One record per isomorphism class (or per labelled graph), in order.

    Each pair is computed on ``breadth_first(g)``; the record holds g.
    """
    if not dedup and n > 5:
        raise ValueError("labelled atlas runs are restricted to n <= 5")
    graphs = list(enumerate_graphs(n, dedup=dedup))
    work = [breadth_first(g) for g in graphs]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            pairs = pool.map(
                _record_worker, [(g.n, g.rows, field_tag) for g in work], chunksize=4
            )
    else:
        pairs = [pd_reg(g, field_tag) for g in work]
    return tuple(
        AtlasRecord(g, p, r, g.is_connected(), len(connected_components(g)))
        for g, (p, r) in zip(graphs, pairs)
    )


def _collect(n: int, records) -> PdRegAtlas:
    pairs = set()
    witnesses: dict[tuple[int, int], Graph] = {}
    for rec in records:
        key = (rec.pd, rec.reg)
        pairs.add(key)
        witnesses.setdefault(key, rec.graph)  # records arrive in key order
    return PdRegAtlas(n, frozenset(pairs), witnesses)


def compute_atlas(
    n: int,
    field_tag: str = "q",
    jobs: int = 1,
    records: Optional[tuple[AtlasRecord, ...]] = None,
    dedup: bool = True,
) -> Atlas:
    """Empirical size set, its connected variant, and the reg = n-1 slice."""
    if records is None:
        records = atlas_records(n, field_tag, jobs, dedup)
    all_side = _collect(n, records)
    conn_side = _collect(n, [rec for rec in records if rec.connected])
    slice_pairs = frozenset(pr for pr in all_side.pairs if pr[1] == n - 1)
    return Atlas(n, field_tag, all_side, conn_side, slice_pairs, records)


def verify_main_theorem(atlas: Atlas) -> CheckReport:
    """Empirical sizes minus the reg = n-1 slice match both closed forms."""
    n = atlas.n
    want_all = {pr for pr in pdreg_closed_form(n) if pr[1] != n - 1}
    got_all = {pr for pr in atlas.all_graphs.pairs if pr[1] != n - 1}
    want_conn = {pr for pr in connected_pdreg_closed_form(n) if pr[1] != n - 1}
    got_conn = {pr for pr in atlas.connected.pairs if pr[1] != n - 1}
    failures = []
    if got_all != want_all or got_conn != want_conn:
        failures.append(
            {
                "missing": sorted(want_all - got_all),
                "extra": sorted(got_all - want_all),
                "missing_connected": sorted(want_conn - got_conn),
                "extra_connected": sorted(got_conn - want_conn),
            }
        )
    return CheckReport.from_failures(
        "main_theorem",
        f"all isomorphism classes at n={n}",
        failures,
        {
            "pairs": sorted(atlas.all_graphs.pairs),
            "reg_top_slice": sorted(atlas.reg_top_slice),
            "classes": len(atlas.records),
        },
    )


def check_probe_range(n: int) -> None:
    """The probe is run for 5 <= n <= 7; callers check before building an atlas."""
    if not 5 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError("the probe runs for 5 <= n <= 7")


def probe_conjecture(atlas: Atlas) -> CheckReport:
    """Every class with reg = n-1 has pd <= n (and pd <= 2n-7 for n >= 6)."""
    n = atlas.n
    check_probe_range(n)
    slice_records = [rec for rec in atlas.records if rec.reg == n - 1]
    failures = []
    for rec in slice_records:
        ceiling_ok = rec.pd <= 2 * n - 7 if n >= 6 else True
        if rec.pd > n or not ceiling_ok:
            failures.append(
                {"graph6": graph6_encode(rec.graph), "pd": rec.pd, "reg": rec.reg}
            )
    max_pd = max((rec.pd for rec in slice_records), default=None)
    return CheckReport.from_failures(
        "reg_top_conjecture",
        f"classes with reg={n - 1} at n={n}",
        failures,
        {
            "slice_size": len(slice_records),
            "max_pd_in_slice": max_pd,
            "bound": n,
        },
    )
