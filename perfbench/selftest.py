"""Self-tests of the benchmark: it must report failures, not hide them.

    python3 perfbench/selftest.py

1. A corrupted expected value makes the run report a failed item and
   ``correct: false``.
2. A tiny item timeout records the first item as a timed-out failure and the
   rest as not run, and the run ends within seconds instead of hanging; a
   timeout inside the worker pool ends the repetition the same way.

Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rep import EXPECTED  # noqa: E402


def run(*extra: str) -> tuple[dict, str, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--trace", "0",
         *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout, time.monotonic() - start


def main() -> int:
    problems = []
    expected = json.loads(EXPECTED.read_text())

    corrupted = json.loads(json.dumps(expected))
    target = corrupted["compute_mix"][1]
    target["expected"][1] += 1
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = Path(tmp) / "expected.json"
        path.write_text(json.dumps(corrupted))
        result, out, _ = run("--workload", "compute_mix", "--expected", str(path))
    if result["correct"] or result["failed"] != 1:
        problems.append(f"corrupted expected value not reported: {result}")
    if f"item {target['name']}:" not in out or "FAILED: got" not in out:
        problems.append("the failed item is not named with its wrong value")

    for workload in ("compute_mix", "atlas6"):
        result, out, elapsed = run("--workload", workload, "--item-timeout", "0.05")
        if result["correct"] or result["failed"] != result["attempted"] or not result["attempted"]:
            problems.append(f"{workload}: tiny timeout did not fail every item: {result}")
        if "FAILED: timeout after 0.05 s" not in out:
            problems.append(f"{workload}: the timed-out item is not named as a timeout")
        if elapsed > 30:
            problems.append(f"{workload}: tiny timeout run took {elapsed:.1f} s")

    # The same through the worker pool: the timeout must not leave the pool
    # half stopped and the repetition hanging.
    code = ("import json, rep; "
            "rep.run_items([rep.atlas_item(json.loads(rep.EXPECTED.read_text()), 5, 2)], 0.05, None)")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": f"{HERE}{os.pathsep}{HERE.parent / 'src'}"},
        start_new_session=True,
    )
    if '"timed_out": "compute_atlas(5, jobs=2)"' not in proc.stdout:
        problems.append(f"pool item timeout not reported: {proc.stdout!r} {proc.stderr[-500:]!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
