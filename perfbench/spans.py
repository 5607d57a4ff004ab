"""Per-layer spans and counters, recorded by wrapping module-global names.

Each layer of edgebetti calls the next through a module-global name (for
example ``edgebetti.betti.homology_from_faces``).  ``install`` replaces those
names with timing wrappers; it changes nothing else in the package.  A span
stack gives every layer an inclusive time and a self time (its duration minus
the time its child spans cover).

Pool workers are forked after the wrappers are installed, so their spans are
recorded in the worker and lost: the classes that compute_mix sends through
the pool are missing from the per-layer counts, and the pool is measured by
``getrusage`` instead.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, global name, layer).  One layer may be reached through several
# names: the package re-exports pd_reg and initial_ideal, and the benchmark
# calls those re-exports directly.
WRAPPED = [
    ("edgebetti.atlas", "enumerate_graphs", "atlas.enumerate_graphs"),
    ("edgebetti.atlas", "canonical_form", "graphs.canonical_form"),
    ("edgebetti.atlas", "pd_reg", "betti.pd_reg"),
    ("edgebetti", "pd_reg", "betti.pd_reg"),
    ("edgebetti.betti", "initial_ideal", "ideals.initial_ideal"),
    ("edgebetti", "initial_ideal", "ideals.initial_ideal"),
    ("edgebetti.betti", "mark_supersets", "ideals.mark_supersets"),
    ("edgebetti.betti", "betti_table_hochster", "betti.hochster"),
    ("edgebetti.betti", "homology_from_faces", "homology"),
    ("edgebetti.homology", "rank_gf2", "linalg.rank_gf2"),
    ("edgebetti.homology", "rank_rational", "linalg.rank_rational"),
    ("edgebetti.homology", "rank_mod_p", "linalg.rank_mod_p"),
]

# Counters that must repeat exactly between two traced runs of one workload.
COUNTS = [
    "atlas.classes",
    "graphs.canonical_form.calls",
    "ideals.initial_ideal.calls",
    "ideals.generators",
    "betti.pd_reg.calls",
    "betti.pd_reg.cache_hits",
    "betti.hochster.calls",
    "homology.calls",
    "homology.faces",
    "homology.acyclic",
    "linalg.rank_gf2.calls",
    "linalg.rank_gf2.rows",
    "linalg.rank_rational.calls",
    "linalg.rank_rational.max_cells",
    "linalg.rank_mod_p.calls",
]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, time covered by children]
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()

    def _enter(self) -> None:
        self.stack.append([perf_counter(), 0.0])

    def _exit(self, layer: str) -> None:
        start, covered = self.stack.pop()
        dur = perf_counter() - start
        self.inclusive[layer] += dur
        self.self_time[layer] += dur - covered
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, layer: str, fn):
        after = _AFTER.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hochster_before = self.counts["betti.hochster.calls"]
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer)
            self.counts[layer + ".calls"] += 1
            if after is not None:
                after(self.counts, args, result, hochster_before)
            return result

        return wrapper

    def wrap_generator(self, layer: str, fn):
        """Time every resume of a generator; count the items it yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(layer)
                self.counts["atlas.classes"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        for module_name, name, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
            if layer == "atlas.enumerate_graphs":
                setattr(module, name, self.wrap_generator(layer, fn))
            else:
                setattr(module, name, self.wrap(layer, fn))

    def total_self_time(self) -> float:
        return sum(self.self_time.values())

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counters; zero for a layer not reached."""
        c, inc, own = self.counts, self.inclusive, self.self_time
        homology_calls = c["homology.calls"]
        out: dict[str, float] = {name: c[name] for name in COUNTS}
        out.update(
            {
                "atlas.enumerate_s": inc["atlas.enumerate_graphs"],
                "graphs.canonical_form.s": inc["graphs.canonical_form"],
                "ideals.initial_ideal.s": inc["ideals.initial_ideal"],
                "ideals.mark_supersets.s": inc["ideals.mark_supersets"],
                "betti.hochster.s": inc["betti.hochster"],
                "betti.hochster.self_s": own["betti.hochster"],
                "homology.s": inc["homology"],
                "homology.self_s": own["homology"],
                "homology.useful_ratio": (
                    1 - c["homology.acyclic"] / homology_calls if homology_calls else 0.0
                ),
                "linalg.rank_gf2.s": inc["linalg.rank_gf2"],
                "linalg.rank_rational.s": inc["linalg.rank_rational"],
                "linalg.rank_mod_p.s": inc["linalg.rank_mod_p"],
            }
        )
        return out


def _after_pd_reg(counts, args, result, hochster_before) -> None:
    if counts["betti.hochster.calls"] == hochster_before:
        counts["betti.pd_reg.cache_hits"] += 1


def _after_initial_ideal(counts, args, result, hochster_before) -> None:
    counts["ideals.generators"] += len(result.generators)


def _after_homology(counts, args, result, hochster_before) -> None:
    counts["homology.faces"] += sum(len(level) for level in args[0])
    if not any(result):
        counts["homology.acyclic"] += 1


def _after_rank_gf2(counts, args, result, hochster_before) -> None:
    counts["linalg.rank_gf2.rows"] += len(args[0])


def _after_rank_rational(counts, args, result, hochster_before) -> None:
    mat = args[0]
    cells = len(mat) * (len(mat[0]) if mat else 0)
    if cells > counts["linalg.rank_rational.max_cells"]:
        counts["linalg.rank_rational.max_cells"] = cells


_AFTER = {
    "betti.pd_reg": _after_pd_reg,
    "ideals.initial_ideal": _after_initial_ideal,
    "homology": _after_homology,
    "linalg.rank_gf2": _after_rank_gf2,
    "linalg.rank_rational": _after_rank_rational,
}
