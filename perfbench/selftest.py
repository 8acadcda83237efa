"""The benchmark's own checks.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a source checkout.  Checks that
  - the floating-point prefilter estimate that shapes the rho18-search
    slice agrees with the program's exact prefilter on every census word;
  - a rho18-search slice gives byte-identical CSV at workers=1 and
    workers=2 (and prints both wall times; the 2-worker time is a
    reference figure, not a metric);
  - the tracer's self times and the stage classification add up;
  - the speed probe's correction adds up on made-up samples;
and prints the census-wide prefilter figures (pairs, prefilter-passing
pairs, their ratio, the number of words by prefilter-passing pairs) next
to those of the rho18-search slices of --seed and the nine seeds after it.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layertrace  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
from k3siegel import cli, setup2  # noqa: E402


def check_tracer() -> list[str]:
    tracer = layertrace.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        tracer.span("leaf", leaf)
        tracer.span("leaf", leaf)

    tracer.span("outer", outer)
    selfs = tracer.self_times()
    errors = []
    if selfs["leaf"][1] != 2 or selfs["outer"][1] != 1:
        errors.append(f"tracer call counts {selfs}")
    if not (0.015 < selfs["outer"][0] < 0.035 and 0.035 < selfs["leaf"][0] < 0.06):
        errors.append(f"tracer self times {selfs}")
    texts = {"resultant is not a unit": "resultant", "phi and psi must be coprime": "precondition",
             "signature (7, 15) after renormalization": "signature",
             "no admissible cluster configuration": "cluster",
             "internal: chamber walk exceeded the Weyl bound": "picard", None: "verdict"}
    for text, stage in texts.items():
        got = layertrace.stage_of(cli.AnalysisRow(rejection=text))
        if got != stage:
            errors.append(f"stage of {text!r} is {got}, expected {stage}")
    return errors


def check_probe() -> list[str]:
    """The speed correction on made-up samples: speeds 1, 1/2 and 1/2 of the
    quiet host's, and one interrupted sample (20 times the reference) that
    counts as probe time but not as speed."""
    ref = speedprobe.REF_S
    probe = speedprobe.SpeedProbe()
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (2.5, 20 * ref)]
    cases = [((0.0, 3.0), (3.0 - 25 * ref) * 2 / 3),
             ((0.9, 1.1), (0.2 - 2 * ref) * 2 / 3)]    # fewer than NEAREST inside
    return [f"probe corrects {span} to {probe.corrected(*span)}, expected {want}"
            for span, want in cases if abs(probe.corrected(*span) - want) > 1e-12]


def check_estimate(cands) -> tuple[list[str], list[int]]:
    csets = cli.cyclotomic_sets(16)
    pool = sorted({j for cs in csets for j in cs})
    units = cli._resultant_unit_table(cands, pool)
    exact = [sum(all(units[j][w] for j in cs) for cs in csets) for w in range(len(cands))]
    estimate = workloads.word_tasks(cands)
    bad = [cands[w].id for w in range(len(cands)) if exact[w] != estimate[w]]
    return ([f"prefilter estimate differs on census ids {bad[:10]}"] if bad else []), exact


def mix(tasks: list[int]) -> str:
    """Pairs, prefilter-passing pairs, their ratio, and words by passing pairs."""
    pairs = len(tasks) * len(cli.cyclotomic_sets(16))
    bins = [(0, 0), (1, 1), (2, 3), (4, 9), (10, 19), (20, 10**9)]
    shares = " ".join(f"{lo}{'+' if hi > 10**6 else '' if lo == hi else f'-{hi}'}:"
                      f"{sum(lo <= t <= hi for t in tasks) / len(tasks):.0%}"
                      for lo, hi in bins)
    return (f"{len(tasks)} words, {pairs} pairs, {sum(tasks)} pass "
            f"(ratio {sum(tasks) / pairs:.4f}); words by passing pairs {shares}")


def report_mix(cands, exact: list[int], seed: int):
    print(f"census: {mix(exact)}")
    index = {c.id: w for w, c in enumerate(cands)}
    for s in range(seed, seed + 10):
        chosen = workloads.choose_slice(cands, s)
        print(f"slice, seed {s}: ids {[c.id for c in chosen]}: "
              f"{mix([exact[index[c.id]] for c in chosen])}")


def check_workers(cands, seed: int) -> list[str]:
    chosen = workloads.choose_slice(cands, seed)
    out = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        rows = cli.search_setup2(workers=workers, include_rejections=True, candidates=chosen)
        text = cli.emit(rows)
        print(f"rho18-search slice, seed {seed}: workers={workers} "
              f"{time.perf_counter() - t0:.2f} s, {len(rows)} rows")
        out[workers] = text.encode()
    return [] if out[1] == out[2] else ["CSV differs between workers=1 and workers=2"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    errors = check_tracer() + check_probe()
    cands = setup2.enumerate_setup2()
    estimate_errors, exact = check_estimate(cands)
    errors += estimate_errors
    report_mix(cands, exact, args.seed)
    errors += check_workers(cands, args.seed)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
