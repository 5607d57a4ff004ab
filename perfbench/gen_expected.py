"""Regenerate perfbench/expected.json, the benchmark's frozen inputs and answers.

    PYTHONPATH=src python3 perfbench/gen_expected.py

It computes every value once with the package, then checks each value that
has an independent fact before it writes anything:

* K_n gives (pd, reg) = (n-2, 2), P_n gives (n-2, n), C_n gives (n-1, n-1);
* initial_ideal(K_n) has n(n-1)/2 generators;
* outside the reg = n-1 slice the atlas pairs equal the closed forms;
* the class counts equal networkx's graph atlas (OEIS A002494: 23, 122, 888).

It freezes the compute_mix answers, the n = 5 and n = 6 atlas summaries, and
pd and reg of all 888 classes at n = 7 as graph6 strings.  The atlas
summaries come from one process, so the benchmark's pool item is checked
against one-process answers.  The n = 7 list runs every class through
``atlas_records(7)`` with two workers: about ten minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from edgebetti import from_edges, graph6_encode, initial_ideal, pd_reg
from edgebetti.atlas import atlas_records, compute_atlas
from edgebetti.families import connected_pdreg_closed_form, pdreg_closed_form
from edgebetti.graphs import canonical_form
from rep import atlas_summary

OUT = Path(__file__).resolve().parent / "expected.json"
N7_JOBS = 2


def complete(n):
    return from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


# compute_mix: (item name, graph, kind, field, known answer).  The known
# answers are the family facts the generator checks.
MIX = [
    ("pd_reg K_9 q", complete(9), "pd_reg", "q", (7, 2)),
    ("pd_reg P_10 q", path(10), "pd_reg", "q", (8, 10)),
    ("pd_reg C_7 q", cycle(7), "pd_reg", "q", (6, 6)),
    ("initial_ideal K_10", complete(10), "initial_ideal", None, 45),
    ("pd_reg C_6 fp:3", cycle(6), "pd_reg", "fp:3", (5, 5)),
    ("pd_reg K_7 fp:3", complete(7), "pd_reg", "fp:3", (5, 2)),
]


class GenerationError(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise GenerationError(what)


def networkx_class_count(n: int) -> int | None:
    try:
        import networkx as nx
    except ImportError:
        return None
    return sum(
        1
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() == n and all(d > 0 for _, d in h.degree())
    )


def checked_summary(n: int, records) -> dict:
    """The atlas summary of the records, after its independent checks."""
    atlas = compute_atlas(n, records=records)
    closed = {pr for pr in pdreg_closed_form(n) if pr[1] != n - 1}
    closed_conn = {pr for pr in connected_pdreg_closed_form(n) if pr[1] != n - 1}
    pairs = {pr for pr in atlas.all_graphs.pairs if pr[1] != n - 1}
    pairs_conn = {pr for pr in atlas.connected.pairs if pr[1] != n - 1}
    check(pairs == closed, f"n={n} pairs outside the reg={n - 1} slice != closed form")
    check(pairs_conn == closed_conn, f"n={n} connected pairs != closed form")
    nx_count = networkx_class_count(n)
    check(nx_count in (None, len(records)), f"n={n}: {len(records)} classes, networkx {nx_count}")
    check(len(records) == {5: 23, 6: 122, 7: 888}[n], f"n={n}: {len(records)} classes")
    check_family_classes(n, records)
    return atlas_summary(atlas)


def check_family_classes(n: int, records) -> None:
    """The K_n, P_n and C_n classes among the records carry their known values."""
    known = {
        graph6_encode(canonical_form(complete(n))): (n - 2, 2),
        graph6_encode(canonical_form(path(n))): (n - 2, n),
        graph6_encode(canonical_form(cycle(n))): (n - 1, n - 1),
    }
    found = 0
    for rec in records:
        want = known.get(graph6_encode(rec.graph))
        if want is not None:
            check((rec.pd, rec.reg) == want, f"n={n} class {rec.graph}: {(rec.pd, rec.reg)} != {want}")
            found += 1
    check(found == 3, f"n={n}: found {found} of the K_n, P_n, C_n classes")


def main() -> int:
    mix = []
    for name, g, kind, field, known in MIX:
        if kind == "pd_reg":
            got = list(pd_reg(g, field))
            check(got == list(known), f"{name}: {got} != {known}")
        else:
            got = len(initial_ideal(g).generators)
            check(got == g.n * (g.n - 1) // 2 == known, f"{name}: {got} generators")
        mix.append({"name": name, "kind": kind, "graph6": graph6_encode(g), "field": field,
                    "expected": got})
    print("compute_mix checked", file=sys.stderr)

    summaries = {}
    for n in (5, 6):
        summaries[f"atlas{n}"] = checked_summary(n, atlas_records(n, jobs=1))
    print("atlas5 and atlas6 checked", file=sys.stderr)

    rec7 = atlas_records(7, jobs=N7_JOBS)
    checked_summary(7, rec7)
    classes7 = [[graph6_encode(rec.graph), rec.pd, rec.reg] for rec in rec7]
    print("n7 classes checked", file=sys.stderr)

    doc = {
        "about": "Frozen inputs and answers of the perfbench workloads; "
        "regenerate with perfbench/gen_expected.py.",
        "compute_mix": mix,
        **summaries,
        "n7": {"classes": len(classes7), "fields": ["graph6", "pd", "reg"], "records": classes7},
    }
    text = json.dumps(doc, indent=1)
    OUT.write_text(text + "\n")
    print(f"wrote {OUT.name}: {len(text)} bytes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
