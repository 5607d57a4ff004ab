"""Command-line surface: compute, construct, atlas, verify, conjecture.

Each command builds a report document (reports.py).  When stdout is a
terminal and no --out file is given, a short human-readable table is
printed instead of raw JSON; redirected output always gets the JSON
document.  Exit codes: 0 all good, 1 some check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

from .atlas import (
    EXHAUSTIVE_LIMIT,
    check_probe_range,
    compute_atlas,
    probe_conjecture,
    verify_main_theorem,
)
from .betti import EdgelessGraphError, graph_betti_table, pd_reg_of_table
from .checks import (
    check_characterizations,
    check_cone_formula,
    check_disjoint_union_formulas,
    check_global_bounds,
    check_join_regularity,
)
from .families import RealizeError, realize
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, from_edges, is_complete
from .linalg import parse_field
from .reports import make_report, report_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for chunk in text.replace(" ", "").split(","):
        if not chunk:
            continue
        u, _, v = chunk.partition("-")
        if not u.isdigit() or not v.isdigit():
            raise ValueError(f"bad edge {chunk!r}; use e.g. 1-2,2-3")
        edges.append((int(u), int(v)))
    return edges


def _input_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 and args.edges:
        raise ValueError("give either --graph6 or --edges, not both")
    if args.graph6:
        return graph6_decode(args.graph6)
    if args.edges:
        edges = _parse_edges(args.edges)
        n = args.n or max((v for e in edges for v in e), default=0)
        return from_edges(n, edges)
    raise ValueError("need --graph6 or --edges")


def _emit(doc: dict, args: argparse.Namespace, human: list[str]) -> None:
    text = report_json(doc)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        for line in human:
            print(line)
    elif sys.stdout.isatty():
        for line in human:
            print(line)
    else:
        print(text)


def _cmd_compute(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        g = _input_graph(args)
        parse_field(args.field)
        if g.has_isolated_vertex():
            raise ValueError(
                f"isolated vertices {g.isolated_vertices()}: inputs follow the "
                "non-isolated vertex convention"
            )
        table = graph_betti_table(g, args.field)
        pair = pd_reg_of_table(table)
    except (ValueError, Graph6Error) as exc:
        doc = make_report("compute", {"argv_error": str(exc)}, {"error": str(exc)})
        _emit(doc, args, [f"error: {exc}"])
        return EXIT_BAD_INPUT
    results: dict = {
        "graph6": graph6_encode(g),
        "n": g.n,
        "edges": g.edge_count,
        "pd": pair.pd,
        "reg": pair.reg,
        "depth_of_quotient": 2 * g.n - pair.pd - 1,
    }
    if args.betti:
        results["betti"] = table.triples()
    doc = make_report(
        "compute",
        {"graph6": graph6_encode(g), "betti": bool(args.betti)},
        results,
        args.field,
        time.perf_counter() - t0,
    )
    _emit(doc, args, [f"graph {graph6_encode(g)}: pd = {pair.pd}, reg = {pair.reg}"])
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    verify = args.n <= EXHAUSTIVE_LIMIT  # certificates get expensive past n = 7
    try:
        cert = realize(
            args.n,
            args.pd,
            args.reg,
            connected_required=args.connected,
            verify=verify,
        )
    except RealizeError as exc:
        doc = make_report(
            "construct",
            {"n": args.n, "pd": args.pd, "reg": args.reg, "connected": args.connected},
            {"error": str(exc)},
        )
        _emit(doc, args, [f"error: {exc}"])
        return EXIT_BAD_INPUT
    doc = make_report(
        "construct",
        {"n": args.n, "pd": args.pd, "reg": args.reg, "connected": args.connected},
        {
            "graph6": graph6_encode(cert.graph),
            "edges": cert.graph.edges(),
            "claimed_pd": cert.claimed.pd,
            "claimed_reg": cert.claimed.reg,
            "verified": verify,
            "trace": list(cert.trace),
        },
        "q",  # realize verifies its witness over Q
        time.perf_counter() - t0,
    )
    _emit(
        doc,
        args,
        [
            f"({args.pd}, {args.reg}) at n={args.n}: {graph6_encode(cert.graph)}"
            f" via {' -> '.join(cert.trace)}"
        ],
    )
    return EXIT_OK


def _require_slow(args: argparse.Namespace, n: int) -> None:
    if n >= EXHAUSTIVE_LIMIT and not args.slow_ok:
        raise ValueError(f"n = {n} is an exhaustive slow run; pass --slow-ok")


def _cmd_atlas(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    dedup = not args.labeled
    try:
        parse_field(args.field)
        _require_slow(args, args.n)
        atlas = compute_atlas(args.n, args.field, jobs=args.jobs, dedup=dedup)
    except ValueError as exc:
        doc = make_report("atlas", {"n": args.n}, {"error": str(exc)})
        _emit(doc, args, [f"error: {exc}"])
        return EXIT_BAD_INPUT
    results = {
        "n": args.n,
        "classes": len(atlas.records),
        "pairs": sorted(atlas.all_graphs.pairs),
        "connected_pairs": sorted(atlas.connected.pairs),
        "reg_top_slice": sorted(atlas.reg_top_slice),
        "witnesses": {
            f"{p},{r}": graph6_encode(g)
            for (p, r), g in sorted(atlas.all_graphs.witnesses.items())
        },
    }
    doc = make_report(
        "atlas",
        {"n": args.n, "dedup": dedup},
        results,
        args.field,
        time.perf_counter() - t0,
    )
    human = [
        f"n={args.n}: {len(atlas.records)} classes, "
        f"{len(atlas.all_graphs.pairs)} size pairs",
        "pairs: " + " ".join(f"({p},{r})" for p, r in sorted(atlas.all_graphs.pairs)),
    ]
    _emit(doc, args, human)
    return EXIT_OK


def _random_graph(
    rng: random.Random, n: int, require_edge: bool = True, no_isolated: bool = False
) -> Graph:
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = from_edges(n, edges)
        if require_edge and not g.edge_count:
            continue
        if no_isolated and g.has_isolated_vertex():
            continue
        return g


def _composition_suite(field_tag: str, seed: int, budget: int) -> list:
    rng = random.Random(seed)
    reports = []
    for _ in range(budget):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        if sum(sizes) <= 7:
            parts = [_random_graph(rng, k) for k in sizes]
            reports.append(check_disjoint_union_formulas(parts, field_tag))
        g1 = _random_graph(rng, rng.randint(1, 3), require_edge=False)
        g2 = _random_graph(rng, rng.randint(1, 3), require_edge=False)
        if not (is_complete(g1) and is_complete(g2)):
            reports.append(check_join_regularity(g1, g2, field_tag))
        base = _random_graph(rng, rng.randint(2, 5), no_isolated=True)
        if not is_complete(base):
            reports.append(check_cone_formula(base, field_tag))
    return reports


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        parse_field(args.field)
        _require_slow(args, args.n)
        reports = []
        if args.suite != "compositions":
            # The class suites share one atlas: each class is computed once.
            atlas = compute_atlas(args.n, args.field, args.jobs)
            if args.suite in ("all", "main"):
                reports.append(verify_main_theorem(atlas))
            classes = [(rec.graph, (rec.pd, rec.reg)) for rec in atlas.records]
            if args.suite in ("all", "bounds"):
                reports += [check_global_bounds(g, pair) for g, pair in classes]
            if args.suite in ("all", "characterizations") and args.n >= 5:
                reports += [
                    check_characterizations(g, pair, args.field) for g, pair in classes
                ]
        if args.suite in ("all", "compositions"):
            reports.extend(_composition_suite(args.field, seed=7, budget=12))
    except ValueError as exc:
        doc = make_report("verify", {"n": args.n}, {"error": str(exc)})
        _emit(doc, args, [f"error: {exc}"])
        return EXIT_BAD_INPUT
    ok = all(r.passed for r in reports)
    doc = make_report(
        "verify",
        {"n": args.n, "suite": args.suite},
        {
            "passed": ok,
            "checks_run": len(reports),
            "failures": [r.to_json() for r in reports if not r.passed],
        },
        args.field,
        time.perf_counter() - t0,
    )
    _emit(
        doc,
        args,
        [f"{'PASS' if ok else 'FAIL'}: {len(reports)} checks at n={args.n}"],
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_conjecture(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        parse_field(args.field)
        _require_slow(args, args.n)
        check_probe_range(args.n)
        report = probe_conjecture(compute_atlas(args.n, args.field, args.jobs))
    except ValueError as exc:
        doc = make_report("conjecture", {"n": args.n}, {"error": str(exc)})
        _emit(doc, args, [f"error: {exc}"])
        return EXIT_BAD_INPUT
    doc = make_report(
        "conjecture",
        {"n": args.n},
        {"passed": report.passed, "report": report.to_json()},
        args.field,
        time.perf_counter() - t0,
    )
    line = (
        f"{'PASS' if report.passed else 'FAIL'}: reg={args.n - 1} slice has "
        f"{report.details['slice_size']} classes, max pd "
        f"{report.details['max_pd_in_slice']} (bound {args.n})"
    )
    _emit(doc, args, [line])
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _jobs(text: str) -> int:
    """A --jobs value: 1 to the core count, refused before any pool starts."""
    jobs, cores = int(text), os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise argparse.ArgumentTypeError(f"--jobs must be between 1 and {cores}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebetti",
        description="Projective dimension and regularity of binomial edge ideals",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def exhaustive(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--slow-ok", action="store_true")
        p.add_argument("--field", default="q", help="q, f2 or fp:<prime>")
        cores = os.cpu_count() or 1
        p.add_argument("--jobs", type=_jobs, default=cores, help="worker count")

    p = sub.add_parser("compute", help="invariants of one graph")
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--edges", help="edge list like 1-2,2-3")
    p.add_argument("--n", type=int, help="vertex count when using --edges")
    p.add_argument("--betti", action="store_true", help="include the Betti table")
    p.add_argument("--field", default="q", help="q, f2 or fp:<prime>")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("construct", help="witness graph for a size pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pd", type=int, required=True)
    p.add_argument("--reg", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("atlas", help="empirical size set over all classes at n")
    exhaustive(p)
    p.add_argument(
        "--labeled",
        action="store_true",
        help="every labelled graph, not one per isomorphism class (n <= 5)",
    )
    p.set_defaults(fn=_cmd_atlas)

    p = sub.add_parser("verify", help="run checker suites at n")
    exhaustive(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", "main", "bounds", "characterizations", "compositions"],
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="probe the reg = n-1 slice")
    exhaustive(p)
    p.set_defaults(fn=_cmd_conjecture)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the JSON report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EdgelessGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
