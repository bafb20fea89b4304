"""Order statistics for the benchmark's timings."""

from fractions import Fraction

# Candidate percentiles, lowest first.
PERCENTILES = (50, 90, 99, 99.9)
# A percentile is reported as a tail only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (100 - Fraction(str(p))) / 100 >= MIN_BEYOND:
            best = p
    return best
