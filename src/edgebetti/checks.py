"""Executable checkers for the bounds, formulas and characterizations.

Every checker here runs in ``verify``.  Class checkers take the engine's
(pd, reg) of the graph they check, which ``verify`` reads from the atlas
record of every isomorphism class.  Composition checkers run on a seeded
random sample; they compute their composites and parts through the Betti
engine and never reuse a construction's claimed values.  A failed check
always carries a counterexample payload (graph6 plus the offending
numbers) so exhaustive runs produce actionable reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .betti import pd_reg
from .families import (
    classify_second_max_pd_shape,
    is_max_pd_shape,
    is_reg3_shape,
)
from .graph6 import graph6_encode
from .graphs import (
    Graph,
    disjoint_union,
    is_complete,
    is_path_graph,
    join,
    vertex_connectivity,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    population: str
    passed: bool
    counterexample: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.passed and self.counterexample is None:
            raise ValueError("a failed check must carry a counterexample")

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "population": self.population,
            "passed": self.passed,
            "details": self.details,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc

    @classmethod
    def from_failures(
        cls, name: str, population: str, failures: list[dict], details: dict
    ) -> CheckReport:
        """Passed iff ``failures`` is empty; the first failure is the counterexample."""
        first = failures[0] if failures else None
        return cls(name, population, not failures, first, details)


def check_global_bounds(g: Graph, pair: tuple[int, int]) -> CheckReport:
    """Every unconditional bound and extreme-value iff for g's (pd, reg) ``pair``."""
    if g.has_isolated_vertex() or g.n < 2:
        raise ValueError("bounds are stated for graphs on >= 2 non-isolated vertices")
    n = g.n
    p, r = pair
    complete_g = is_complete(g)
    path_g = is_path_graph(g)
    connected = g.is_connected()
    clauses: dict[str, bool] = {
        "reg_window": 2 <= r <= n,
        "reg2_iff_complete": (r == 2) == complete_g,
        "regn_iff_path": (r == n) == path_g,
        "complete_pd": p == n - 2 if complete_g else True,
        "path_pd": p == n - 2 if path_g else True,
    }
    details: dict = {"pd": p, "reg": r, "n": n}
    if n >= 3:
        clauses["pd_upper"] = p <= 2 * n - 5
        clauses["depth_floor"] = 2 * n - (p + 1) >= 4
    if connected:
        clauses["connected_pd_floor"] = p >= n - 2
        if not complete_g:
            ell = vertex_connectivity(g)
            details["vertex_connectivity"] = ell
            clauses["connectivity_pd_floor"] = p >= n + ell - 3
    if 3 <= r <= n - 1:
        clauses["refined_pd_floor"] = p >= max(n - r, r - 2)
    failures = (
        []
        if all(clauses.values())
        else [
            {
                "graph6": graph6_encode(g),
                "pd": p,
                "reg": r,
                "failed": sorted(k for k, ok in clauses.items() if not ok),
            }
        ]
    )
    return CheckReport.from_failures("global_bounds", f"graph n={n}", failures, details)


# -- composition formulas -------------------------------------------------------


def check_disjoint_union_formulas(
    parts: Sequence[Graph], field_tag: str = "q"
) -> CheckReport:
    """pd adds with a +(c-1) shift and reg adds with a -(c-1) shift."""
    if not parts:
        raise ValueError("need at least one part")
    if any(part.edge_count == 0 for part in parts):
        raise ValueError("every part must have an edge")
    whole = disjoint_union(parts)
    p, r = pd_reg(whole, field_tag)
    pieces = [pd_reg(part, field_tag) for part in parts]
    c = len(parts)
    want_p = sum(q.pd for q in pieces) + (c - 1)
    want_r = sum(q.reg for q in pieces) - (c - 1)
    ok = (p, r) == (want_p, want_r)
    failures = (
        []
        if ok
        else [
            {
                "graph6": graph6_encode(whole),
                "got": [p, r],
                "expected": [want_p, want_r],
            }
        ]
    )
    return CheckReport.from_failures(
        "disjoint_union_formulas",
        f"{c} parts, n={whole.n}",
        failures,
        {"parts": [[q.pd, q.reg] for q in pieces]},
    )


def check_join_regularity(g1: Graph, g2: Graph, field_tag: str = "q") -> CheckReport:
    """reg of a join is the max of the parts' regs and 3 (edgeless parts drop)."""
    if is_complete(g1) and is_complete(g2):
        raise ValueError("the join formula excludes two complete operands")
    whole = join(g1, g2)
    _, r = pd_reg(whole, field_tag)
    terms = [3]
    for part in (g1, g2):
        if part.edge_count:
            terms.append(pd_reg(part, field_tag).reg)
    want = max(terms)
    failures = (
        []
        if r == want
        else [{"graph6": graph6_encode(whole), "got": r, "expected": want}]
    )
    return CheckReport.from_failures(
        "join_regularity", f"n={whole.n}", failures, {"terms": sorted(terms)}
    )


def check_cone_formula(base: Graph, field_tag: str = "q") -> CheckReport:
    """pd of a cone: +2 over a connected base, capped below by n-3 otherwise.

    Scope: bases on non-isolated vertices only.  An isolated base vertex
    turns into a pendant of the apex and genuinely breaks the formula
    (cone over 2K2 + K1 has pd 4, not max(1+2, 3) = 3), and a complete base
    gives a complete cone where the +2 step fails as well.
    """
    if base.edge_count == 0:
        raise ValueError("the cone formula needs a base with an edge")
    if base.has_isolated_vertex():
        raise ValueError("the cone formula needs a base without isolated vertices")
    if is_complete(base):
        raise ValueError("the cone formula excludes complete bases")
    whole = join(base, Graph(1, (0,)))
    n = whole.n
    p, r = pd_reg(whole, field_tag)
    bp, br = pd_reg(base, field_tag)
    want_p = bp + 2 if base.is_connected() else max(bp + 2, n - 3)
    want_r = max(br, 3)
    ok = (p, r) == (want_p, want_r)
    failures = (
        []
        if ok
        else [
            {
                "graph6": graph6_encode(whole),
                "got": [p, r],
                "expected": [want_p, want_r],
            }
        ]
    )
    return CheckReport.from_failures(
        "cone_formula",
        f"base n={base.n} {'connected' if base.is_connected() else 'disconnected'}",
        failures,
        {"base": [bp, br]},
    )


# -- structural characterizations -----------------------------------------------


def check_characterizations(
    g: Graph, pair: tuple[int, int], field_tag: str = "q"
) -> CheckReport:
    """Both directions of the three shape iffs, plus the reg windows, for ``pair``."""
    if g.n < 5 or g.has_isolated_vertex():
        raise ValueError("characterizations need n >= 5 non-isolated vertices")
    n = g.n
    p, r = pair
    max_shape = is_max_pd_shape(g)
    second_shape, reason = classify_second_max_pd_shape(g)
    clauses: dict[str, bool] = {
        "max_pd_iff_two_universal": (p == 2 * n - 5) == max_shape,
        "second_max_pd_iff_shape": (p == 2 * n - 6) == second_shape,
    }
    if not is_complete(g):
        clauses["reg3_iff_shape"] = (r == 3) == is_reg3_shape(g, field_tag)
    if p == 2 * n - 5:
        clauses["max_pd_reg_window"] = 3 <= r <= n - 2
    if p == 2 * n - 6 and n >= 6:
        clauses["second_max_pd_reg_window"] = 3 <= r <= n - 2
    failures = (
        []
        if all(clauses.values())
        else [
            {
                "graph6": graph6_encode(g),
                "pd": p,
                "reg": r,
                "failed": sorted(k for k, ok in clauses.items() if not ok),
            }
        ]
    )
    return CheckReport.from_failures(
        "characterizations",
        f"graph n={n}",
        failures,
        {"pd": p, "reg": r, "second_max_reason": reason},
    )
