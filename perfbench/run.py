"""Run one perfbench workload against the checkout's edgebetti and report it.

    python3 perfbench/run.py --workload atlas6 --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 58 --trace 0

Every repetition is a fresh interpreter (rep.py), started after the previous
one has ended: a closed loop with one client.  Untraced, the run repeats the
workload as often as fits in ``--seconds`` (at least once) and reports the
median end-to-end metrics.  Traced, it makes one untraced repetition and two traced ones, and
reports the per-layer metrics; it fails the run when a count differs between
the two traced repetitions, or when the layer self times do not add up to the
traced wall time within 10%.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it give the run environment,
each item and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import EXPECTED, WORKLOADS  # noqa: E402
from spans import COUNTS, Tracer  # noqa: E402

# Extra interpreter launches that only set up, so setup_s is a median of many.
SETUP_LAUNCHES = 10
TRACED_REPS = 2
# The whole run, every repetition included, ends within this many seconds.
RUN_DEADLINE_S = 170.0
COVERAGE_TOLERANCE = 0.10
HASH_SEED = "0"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Rep(NamedTuple):
    """One child interpreter: its result, or the items it finished and why it
    ended early."""

    data: dict | None
    setup_s: float | None
    items: list[dict]
    error: str | None


def kill_group(pgid: int) -> None:
    """Kill what is left of a child's process group, its pool workers included."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args: list[str], timeout: float) -> Rep:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        return Rep(None, None, [], f"killed after {timeout:.0f} s")
    kill_group(proc.pid)
    try:
        last = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):  # no result line: a crash, reported below
        last = {}
    if "timed_out" in last:
        timed_out = {"name": last["timed_out"], "ok": False,
                     "error": f"timeout after {last['timeout_s']} s"}
        return Rep(None, None, last["items"] + [timed_out], "an item timed out")
    if proc.returncode != 0:
        return Rep(None, None, [], f"exit {proc.returncode}: {err.strip()[-2000:]}")
    return Rep(last, last["setup_done"] - spawned, last.get("items", []), None)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--item-timeout", type=float, default=60.0,
                    help="seconds one item may run before it counts as failed")
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="frozen answers to check against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgebetti" / "__init__.py").is_file():
        print(f"no edgebetti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.expected.is_file():
        print(f"missing {args.expected}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        if not run_workload(workload, args):
            return 1
    return 0


def run_workload(workload: str, args) -> bool:
    """Measure one workload and print its result; False if it could not set up."""
    started = time.monotonic()
    load_before = os.getloadavg()
    common = ["--workload", workload, "--expected", str(args.expected.resolve())]

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - started)

    warm = launch(common + ["--setup-only"], remaining())  # fills the bytecode cache
    if warm.data is None:
        print(f"set-up failed: {warm.error}", file=sys.stderr)
        return False
    names = warm.data["items"]

    reps: list[tuple[int, Rep]] = []  # (traced, rep)

    def rep(traced: int) -> bool:
        """Run one repetition; False once an item failed or the child died."""
        budget = remaining()
        r = launch(common + ["--trace", str(traced),
                             "--item-timeout", str(min(args.item_timeout, budget))], budget)
        reps.append((traced, r))
        return r.data is not None and all(it["ok"] for it in r.items)

    first = time.monotonic()
    ok = rep(0)
    if args.trace:
        for _ in range(TRACED_REPS):
            ok = ok and rep(1)
    else:
        # Start another repetition only if one more, at the mean length so
        # far, still ends within --seconds; there is always at least one.
        while ok:
            now = time.monotonic()
            if now - started + (now - first) / len(reps) > args.seconds:
                break
            ok = rep(0)
    setups = [r.setup_s for _, r in reps if r.setup_s is not None]
    for _ in range(0 if args.trace else SETUP_LAUNCHES):
        s = launch(common + ["--setup-only"], remaining())
        if s.setup_s is not None:
            setups.append(s.setup_s)

    attempted = failed = 0
    correct = True
    for i, (traced, r) in enumerate(reps, 1):
        tag = f"rep {i} {'traced' if traced else 'untraced'}"
        if r.data is None:
            print(f"{tag}: ended early: {r.error}")
        else:
            print(f"{tag}: wall {r.data['wall_s']:.3f} s, cpu {r.data['cpu_s']:.3f} s, "
                  f"setup {r.setup_s:.4f} s")
        # Items after the one that ended a repetition early count as failed.
        not_run = [{"name": n, "ok": False, "error": "not run"} for n in names[len(r.items):]]
        for it in r.items + not_run:
            attempted += 1
            counts = "".join(f", {k} {v}" for k, v in it.get("counts", {}).items())
            took = f"{it['s']:.3f} s" if "s" in it else "-"
            status = "ok" if it["ok"] else f"FAILED: {it['error']}"
            print(f"  item {it['name']}: {took}{counts}, {status}")
            if not it["ok"]:
                failed += 1
                correct = False
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} items)")

    plain = [r.data for t, r in reps if not t and r.data is not None]
    traced = [r.data for t, r in reps if t and r.data is not None]
    metrics: dict[str, dict] = {}
    if args.trace:
        metrics, trace_ok = layer_metrics(plain, traced)
        correct = correct and trace_ok
    else:
        metrics["setup_s"] = {"value": median(setups), "unit": "s"}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = {"value": median([d[name] for d in plain]),
                             "unit": END_TO_END[name]}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "PYTHONHASHSEED": HASH_SEED,
        "repetitions": len(reps),
        "setup_samples": len(setups),
    }
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return True


def layer_metrics(plain: list[dict], traced: list[dict]):
    """Per-layer metrics of a traced run, and whether its self-checks held.

    A repetition that failed leaves its metrics at 0.
    """
    ok = len(traced) == TRACED_REPS
    if not ok:
        print("trace check FAILED: a traced repetition did not finish")
    elif any(traced[0]["trace"][k] != traced[1]["trace"][k] for k in COUNTS) or [
        it.get("counts") for it in traced[0]["items"]
    ] != [it.get("counts") for it in traced[1]["items"]]:
        print("trace check FAILED: counts differ between the two traced repetitions")
        ok = False
    coverage = median([d["trace_self_s"] / d["wall_s"] for d in traced])
    if ok and abs(coverage - 1) > COVERAGE_TOLERANCE:
        print(f"trace check FAILED: layer self times cover {coverage:.3f} of the traced wall time")
        ok = False

    runs = [d["trace"] for d in traced] or [Tracer().metrics()]
    metrics = {  # counts repeat exactly, so the first run's counts stand for both
        name: {"value": runs[0][name] if name in COUNTS else median([r[name] for r in runs]),
               "unit": layer_unit(name)}
        for name in runs[0]
    }
    base = plain[0] if plain else None  # the untraced repetition
    pool_wall = base["pool_wall_s"] if base else 0.0
    pool_cpu = base["pool_cpu_s"] if pool_wall else 0.0
    metrics["atlas.pool_wall_s"] = {"value": pool_wall, "unit": "s"}
    metrics["atlas.pool_cpu_s"] = {"value": pool_cpu, "unit": "s"}
    metrics["atlas.pool_util"] = {
        "value": pool_cpu / (base["jobs"] * pool_wall) if pool_wall else 0.0, "unit": "ratio"}
    overhead = median([d["wall_s"] for d in traced]) - base["wall_s"] if base and traced else 0.0
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())
