"""Benchmark of the exact search pipeline (k3siegel).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: rho18-search,
rho18-table, setup1-search, acceptance-fast (see perfbench/README.md).
Each round runs in a fresh process (worker.py); rounds repeat while the
next one, if it takes as long as the slowest so far, ends within
--seconds, and at least one runs.  The end-to-end metrics are medians
over rounds (peak_rss_mb: the maximum); setup_s takes at least
SETUP_SAMPLES samples.  Times are corrected for the host's speed
(speedprobe.py).
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1, one traced round gives the
per-layer metrics and its spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rho18-search", "rho18-table", "setup1-search", "acceptance-fast")
DEADLINE_S = 175          # a run ends within 180 seconds
SETUP_SAMPLES = 3
# Workloads whose set-up is the imports alone.  When fewer than SETUP_SAMPLES
# rounds fit, extra processes that only import give the missing set-up samples.
IMPORT_ONLY_SETUP = ("setup1-search", "acceptance-fast")


def run_round(args, deadline: float, setup_only: bool = False) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print("round timed out", file=sys.stderr)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "pairs_per_s": {"value": statistics.median(r["pairs"] / r["wall_s"] for r in rounds),
                        "unit": "pairs/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "k3siegel", "__init__.py")):
        print(f"no k3siegel sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    rounds = []
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        rnd = run_round(args, deadline)
        if rnd is None:
            return 1
        rounds.append(rnd)
        for line in rnd["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"round {len(rounds)}: setup_s {rnd['setup_s']:.4f} wall_s {rnd['wall_s']:.4f} "
              f"(measured {rnd['raw_wall_s']:.4f})", file=sys.stderr)
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if args.trace or now + slowest - start > args.seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and args.workload in IMPORT_ONLY_SETUP and len(setups) < SETUP_SAMPLES:
        rnd = run_round(args, deadline, setup_only=True)
        if rnd is None:
            return 1
        setups.append(rnd["setup_s"])
        print(f"set-up only: setup_s {rnd['setup_s']:.4f}", file=sys.stderr)

    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": rounds[0]["layers"] if args.trace else end_to_end(rounds, setups),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
