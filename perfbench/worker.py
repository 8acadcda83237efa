"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Prints one JSON object as the last line of standard output.
A fresh process per round gives every round the cold caches a user pays
on each command-line call (picard2's per-process analysis cache, the
lru_caches in intpoly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import layertrace
from speedprobe import PROBE

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure the imports and exit (for workloads whose set-up is that alone)")
    args = ap.parse_args()

    PROBE.start()
    try:
        return run(args)
    finally:
        PROBE.stop()


def run(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    t1 = time.perf_counter()
    import k3siegel

    if not os.path.abspath(k3siegel.__file__).startswith(SRC + os.sep):
        print(f"k3siegel imported from {k3siegel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        PROBE.top_up()
        print(json.dumps({"setup_s": PROBE.corrected(t0, t1)}))
        return 0
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    recorder = workloads.PairRows()
    rnd = workload(args.seed, recorder, tracer)

    out = {
        "setup_s": PROBE.corrected(t0, t1) + rnd.setup_s,
        "wall_s": rnd.wall_s,
        "raw_wall_s": rnd.raw_wall_s,
        "pairs": rnd.pairs,
        "peak_rss_mb": rnd.peak_rss_mb,
        "attempted": rnd.attempted,
        "failed": len(rnd.failures),
        "failures": [f"{op}: {why}" for op, why in list(rnd.failures.items())[:20]],
    }
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(
            tracer, workloads.ACCEPTANCE_CRITERIA, rnd.rows, rnd.pairs, rnd.wall_s,
            rnd.raw_wall_s)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
