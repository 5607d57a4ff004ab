"""One repetition of a perfbench workload, run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py --workload atlas6 --trace 0

``run.py`` starts this script once per repetition and reads the JSON object
it prints as its last line.  The script imports edgebetti from the checkout,
decodes the workload's frozen inputs, runs the items one after another, each
under its own timeout, and checks every output against expected.json.  An
item that times out ends the repetition.  With
``--trace 1`` it first wraps the layer boundaries (see spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("atlas6", "compute_mix")
# A runaway item fails with MemoryError instead of exhausting the machine.
ADDRESS_SPACE_LIMIT = 4 << 30


def check_equal(got, want) -> str | None:
    return None if got == want else f"got {got!r}, expected {want!r}"


def atlas_summary(atlas) -> dict:
    """What expected.json freezes of an atlas; independent of class labelling."""
    hist = Counter((r.pd, r.reg) for r in atlas.records)
    return {
        "classes": len(atlas.records),
        "pairs": sorted(map(list, atlas.all_graphs.pairs)),
        "connected_pairs": sorted(map(list, atlas.connected.pairs)),
        "reg_top_slice": sorted(map(list, atlas.reg_top_slice)),
        "pdreg_histogram": [[p, r, c] for (p, r), c in sorted(hist.items())],
    }


def atlas_item(expected: dict, n: int, jobs: int):
    from edgebetti.atlas import compute_atlas

    want = expected[f"atlas{n}"]

    def check(atlas) -> str | None:
        got = atlas_summary(atlas)
        bad = [k for k in want if got[k] != want[k]]
        return f"differs from expected in {bad}" if bad else None

    return (f"compute_atlas({n}, jobs={jobs})", lambda: compute_atlas(n, "q", jobs=jobs), check, jobs)


def mix_items(expected: dict):
    import edgebetti as eb

    items = []
    for spec in expected["compute_mix"]:
        g = eb.graph6_decode(spec["graph6"])
        want = spec["expected"]
        if spec["kind"] == "pd_reg":
            thunk = lambda g=g, f=spec["field"]: list(eb.pd_reg(g, f))
        else:
            thunk = lambda g=g: len(eb.initial_ideal(g).generators)
        items.append((spec["name"], thunk, lambda got, want=want: check_equal(got, want), 1))
    # The worker pool, checked against the answers frozen from one process at n = 5.
    items.append(atlas_item(expected, 5, 2))
    return items


def build_items(workload: str, expected: dict):
    """Decode the workload's inputs: (name, thunk, check, pool size) per item."""
    if workload == "atlas6":
        return [atlas_item(expected, 6, 1)]
    return mix_items(expected)


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_items(items, item_timeout: float, tracer) -> list[dict]:
    results = []

    def on_timeout(signum, frame):
        # An exception raised here could leave the worker pool or a lock half
        # done and hang the repetition.  Report the items so far and the one
        # that timed out, then kill the process group, pool workers included.
        report = {"items": results, "timed_out": items[len(results)][0],
                  "timeout_s": item_timeout}
        os.write(1, (json.dumps(report) + "\n").encode())
        os.killpg(os.getpgrp(), signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_timeout)
    for name, thunk, check, jobs in items:
        before = Counter(tracer.counts) if tracer else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, item_timeout)
        try:
            error = check(thunk())
        except Exception as exc:  # a failed item is recorded, the run goes on
            error = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result = {"name": name, "ok": error is None, "error": error,
                  "s": time.perf_counter() - start, "jobs": jobs}
        if tracer:
            result["counts"] = {
                k: v for k, v in (Counter(tracer.counts) - before).items()
                if k in ("betti.hochster.calls", "homology.calls")
            }
        results.append(result)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--item-timeout", type=float, default=60.0)
    ap.add_argument("--expected", type=Path, default=EXPECTED)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    if os.getpgrp() != os.getpid():  # a timeout kills this process group only
        os.setpgid(0, 0)
    import edgebetti

    if SRC.resolve() not in Path(edgebetti.__file__).resolve().parents:
        print(f"edgebetti imported from {edgebetti.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    expected = json.loads(args.expected.read_text())
    items = build_items(args.workload, expected)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "items": [item[0] for item in items]}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = cpu_seconds(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    results = run_items(items, args.item_timeout, tracer)
    wall = time.perf_counter() - t0
    children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu_seconds(resource.RUSAGE_SELF) - cpu0 + children_cpu,
        "peak_rss_mb": peak_kb / 1024,
        "jobs": max(r["jobs"] for r in results),
        "pool_wall_s": sum(r["s"] for r in results if r["jobs"] > 1),
        "pool_cpu_s": children_cpu,
        "items": results,
    }
    if tracer:
        out["trace"] = tracer.metrics()
        out["trace_self_s"] = tracer.total_self_time()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
