"""Contention-corrected time.

The benchmark runs on shared virtual machines where a co-tenant on the sibling
hyperthread slows this process by up to 1.8x for seconds at a time. Raw wall
times of one 10 s pass then differ by 20-40% between runs of identical code.

`SpeedProbe` measures that slowdown while the benchmark runs: every
INTERVAL_S a timer signal runs a fixed probe of Fraction and dict arithmetic
(the operations heightzero's exact arithmetic is made of) and records how
long it took. `seconds(t0, t1)` converts a raw interval into reference
seconds, the time the same work takes on a core where the probe takes
REFERENCE_S: each slice between two probes counts as its raw length times
REFERENCE_S over the probe time there. Probe time itself is left out, and
single probes are smoothed by a running median, since the slow and fast
phases last far longer than one interval.

All benchmark times are reference seconds. On the 2.1 GHz x86-64 cores where
REFERENCE_S was chosen, that is the wall time without a busy co-tenant.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 60e-6
SMOOTH = 5  # probes per running median


def probe_work():
    f, d = Fraction(0), {}
    for i in range(1, 25):
        f += Fraction(1, i)
        d[i % 7] = d.get(i % 7, 0) + i
    return f


class SpeedProbe:
    """Start before the work, stop after it, then convert intervals of
    `time.perf_counter()` with `seconds`."""

    def __init__(self):
        self.times = []  # raw start of each probe
        self.costs = []  # raw duration of each probe
        self.rates = []  # reference seconds per raw second, smoothed
        self._cum = []  # reference seconds elapsed at each probe start

    def _tick(self, signum, frame):
        t = time.perf_counter()
        probe_work()
        self.times.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:
            self._tick(None, None)
        half = SMOOTH // 2
        costs = self.costs
        self.rates = [
            REFERENCE_S / statistics.median(costs[max(i - half, 0) : i + half + 1])
            for i in range(len(costs))
        ]
        # probe time itself is left out of every slice
        self._cum = [0.0]
        for i in range(1, len(self.times)):
            raw = self.times[i] - self.times[i - 1] - costs[i - 1]
            self._cum.append(self._cum[-1] + raw * (self.rates[i - 1] + self.rates[i]) / 2)

    def _at(self, t):
        times, cum, rates = self.times, self._cum, self.rates
        i = bisect.bisect_right(times, t)
        if i == 0:
            return cum[0] - (times[0] - t) * rates[0]
        if i == len(times):
            return cum[-1] + (t - times[-1]) * rates[-1]
        frac = (t - times[i - 1]) / (times[i] - times[i - 1])
        return cum[i - 1] + frac * (cum[i] - cum[i - 1])

    def seconds(self, t0, t1):
        """Reference seconds of the raw interval [t0, t1]."""
        return self._at(t1) - self._at(t0)
