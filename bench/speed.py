"""Host-speed normalisation of timings on a shared machine.

On a machine shared with other tenants the same op runs up to twice as slow
for stretches of seconds to minutes; steal time stays near zero, so the CPU
is not taken away but runs slower.  A fixed probe that does the kind of work
the package spends its time on (small polynomial products over F_7, a new
object per product, all kept alive) slows down in step.  `SpeedGauge` times
the probe every `INTERVAL_S` between ops, and `normalise` rescales an
interval by the probe times measured nearest to it, so that a reported time
is the time the op would take at the speed where the probe takes
`NOMINAL_S`.  The probe is part of the benchmark, never of the package, so a
change to the package moves the normalised times in the same proportion as
the raw ones.
"""

import bisect
import statistics
import time

PROBE_PRODUCTS = 1500
NOMINAL_S = 0.005  # the probe's time at the reference speed
INTERVAL_S = 0.2
NEAREST = 3  # probe samples pooled for one interval


class _Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % 7
        return _Poly(out)


def _probe():
    # the constant term stays 1, so the product never collapses to zero
    x, acc, kept = _Poly((1, 2, 3)), _Poly((1,)), []
    for _ in range(PROBE_PRODUCTS):
        acc = acc * x
        if len(acc.coeffs) > 6:
            acc = _Poly(acc.coeffs[:3])
        kept.append(acc)
    return kept


class SpeedGauge:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times = []  # midpoints of the probe samples, increasing
        self.probes = []  # seconds each probe sample took

    def sample(self):
        t0 = self.clock()
        _probe()
        t1 = self.clock()
        self.times.append((t0 + t1) / 2)
        self.probes.append(t1 - t0)

    def maybe_sample(self):
        """Take a sample when the last one is INTERVAL_S old or more."""
        if not self.times or self.clock() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def normalise(self, start, end):
        """end - start at the reference speed: scaled by NOMINAL_S over the
        median of the NEAREST probe samples around the interval's midpoint."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.times, mid)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if hi >= len(self.times) or (
                lo > 0 and mid - self.times[lo - 1] <= self.times[hi] - mid
            ):
                lo -= 1
            else:
                hi += 1
        return (end - start) * NOMINAL_S / statistics.median(self.probes[lo:hi])
