"""Host-speed probe: corrects the benchmark's timings for the host's speed.

The benchmark runs on a few cores of a shared host, whose speed for the
same single-threaded work flickers between levels up to half again apart,
in a mix that drifts over minutes (see README.md, "Host noise").  The probe measures
that speed while the program runs: a timer signal, every PERIOD_S, runs a
fixed pure-Python loop in the benchmark's process and records how long it
took.  The speed at that moment is REF_S divided by that time, where
REF_S is the loop's time on the quiet host.

A corrected interval is its seconds, less the probe's own, times the
mean speed over the interval (over the NEAREST samples nearest to it,
when it holds fewer): the seconds the same work would have taken at the
quiet host's speed.  On a quiet host it equals the wall time.  The host
flickers between speeds within a tenth of a second, so a short interval
takes its speed from the second or so around it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
REF_S = 0.0018          # the loop's time on the quiet development host (2 vCPUs, Xeon)
NEAREST = 10            # samples used for an interval that holds fewer
WARMUP = 5              # unrecorded runs first: the interpreter specializes the loop


def probe_loop() -> float:
    """The fixed work: small-int and Fraction arithmetic, as in the program's
    exact linear algebra.  Returns its seconds.  The garbage collector is
    off meanwhile: a collection would scan the program's heap, and the
    probe would time the program's heap instead of the host."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += (i * i + acc) % 1009
    q = Fraction(0)
    for i in range(1, 240):
        q += Fraction(acc % 97 + i, i * i + 1)
    seconds = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return seconds


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, seconds)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start, probe_loop()))

    def start(self):
        for _ in range(WARMUP):
            probe_loop()
        for _ in range(3):      # samples before the first timer tick
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def top_up(self):
        """Take samples now until there are NEAREST, for a process that
        ends before the timer has given them."""
        while len(self.samples) < NEAREST:
            self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _within(self, a: float, b: float) -> list[tuple[float, float]]:
        return [s for s in self.samples if a <= s[0] < b]

    def probe_seconds(self, a: float, b: float) -> float:
        """Seconds the probe itself took within [a, b)."""
        return sum(d for _, d in self._within(a, b))

    def speed(self, a: float, b: float) -> float:
        """Mean host speed over [a, b), relative to the quiet host.  A sample
        over twice the median length was interrupted, and is left out."""
        inside = self._within(a, b)
        if len(inside) < NEAREST:
            mid = (a + b) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        cut = 2 * statistics.median(d for _, d in inside)
        return statistics.fmean(REF_S / d for _, d in inside if d <= cut)

    def corrected(self, a: float, b: float) -> float:
        """Seconds that [a, b) would have taken at the quiet host's speed."""
        return (b - a - self.probe_seconds(a, b)) * self.speed(a, b)


PROBE = SpeedProbe()
