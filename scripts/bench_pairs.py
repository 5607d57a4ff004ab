"""Compare two checkouts on the perfbench benchmark and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --label gf2_clearing

Runs each checkout's own ``perfbench/run.py --workload all --trace 0`` in ten
alternating pairs (even pairs start with the parent, odd pairs with the
change), then one traced run per checkout and workload.  The file written to
the current directory holds, per workload and end-to-end metric, both sides'
medians and quartiles, the pairs the change won (ties count for neither) and
every run's value; and the traced per-layer metrics of both sides.  The run
length (``run_seconds``) and which way is better come from the change's
BENCHMARK.json.  A run that exits nonzero or prints no result for a workload
stops the script with that run's stderr.

Both sides measure uncached code: before the first run the script deletes
every ``__pycache__`` under each checkout's ``src/`` and ``perfbench/``, and
it runs ``run.py`` with ``PYTHONDONTWRITEBYTECODE=1``, which ``run.py``
passes on to every repetition.  A side that found cached bytecode would
start faster and peak lower in memory, which shows in setup_s and
peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Ten pairs is the fewest from which a 9-of-10 win rate can be read.
PAIRS = 10
UNCACHED = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def clear_bytecode(checkout: Path) -> None:
    for top in ("src", "perfbench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def run_benchmark(
    checkout: Path, workloads: list[str], trace: int, seconds: float
) -> dict[str, dict]:
    """Result object of every workload block, keyed by workload name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", str(seconds),
         "--workload", workloads[0] if len(workloads) == 1 else "all", "--trace", str(trace)],
        cwd=checkout, env=UNCACHED, capture_output=True, text=True,
    )
    results, env = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
        elif line.startswith("{") and env is not None:
            doc = json.loads(line)
            doc["env"] = env
            results[env["workload"]] = doc
    missing = sorted(set(workloads) - results.keys())
    if proc.returncode != 0 or missing:
        raise RuntimeError(
            f"{checkout}: run.py exited {proc.returncode}, no result for {missing}\n{proc.stderr}"
        )
    return results


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    for side in SIDES:
        clear_bytecode(getattr(args, side))

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_benchmark(getattr(args, side), workloads, 0, seconds))
            print(f"pair {i + 1} {side} done", file=sys.stderr, flush=True)

    env = runs["parent"][0][workloads[0]]["env"]
    doc: dict = {"label": args.label, "pairs": PAIRS, "workloads": {}}
    doc.update({k: env[k] for k in ("nproc", "cpu_model", "python")})
    for w in workloads:
        end_to_end = {}
        for name, lower in lower_better.items():
            vals = {s: [r[w]["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
            wins = sum(
                (c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"])
            )
            parent, change = summary(vals["parent"]), summary(vals["change"])
            end_to_end[name] = {
                "unit": runs["parent"][0][w]["metrics"][name]["unit"],
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "median_delta_rel": change["median"] / parent["median"] - 1,
                "parent_iqr": parent["q3"] - parent["q1"],
            }
        failed = {s: sum(r[w]["failed"] for r in runs[s]) for s in SIDES}
        doc["workloads"][w] = {"end_to_end": end_to_end, "failed_items": failed}

    for side in SIDES:
        for w in workloads:
            traced = run_benchmark(getattr(args, side), [w], 1, seconds)[w]
            doc["workloads"][w].setdefault("per_layer", {})[side] = {
                "correct": traced["correct"],
                "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
            }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
