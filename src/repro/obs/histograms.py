"""Fixed-bucket latency histograms with percentile estimation.

Mean-only accounting hides exactly what the paper cares about — the tail a
slow superblock member adds to a multi-plane command.  :class:`LatencyStat`,
the accumulator the FTL metrics use, keeps a fixed, geometry-free bucket
ladder (so two runs always bucket identically) plus exact min/max/mean via
an embedded :class:`~repro.utils.stats.RunningStats`, and estimates
p50/p95/p99 by linear interpolation inside the owning bucket.  One
``add()`` feeds both the running moments and the buckets.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.utils.stats import RunningStats

#: Default bucket upper bounds in µs: a 1-2-5 ladder from 1 µs to 10 s.
#: Flash reads sit around 10^2 µs, programs around 10^3, superpage
#: completions and GC storms reach 10^4-10^6; the ladder covers all of them
#: with ~10% relative resolution while staying a fixed, seed-independent
#: shape every run shares.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(0, 7)
    for mantissa in (1.0, 2.0, 5.0)
) + (1e7,)


class LatencyStat:
    """Latency accumulator: exact running moments plus fixed-bucket counts.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    extra overflow bucket (``counts[-1]``) catches everything above the last
    bound.  Exact min/max/mean/count come from the embedded
    :class:`RunningStats`, so quantile estimates are clamped to the truly
    observed range (the overflow bucket in particular reports the exact
    maximum instead of an invented edge).  Keeps the :class:`RunningStats`
    surface (``mean``/``count``/``minimum``/``maximum``/``stdev``/``total``)
    the metrics consumers use, and adds the tail view (``p50``/``p95``/
    ``p99``) the flat means were hiding.
    """

    __slots__ = ("bounds", "counts", "stats")

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        if not bounds:
            raise ValueError("need at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        # counts[i] <= bounds[i]; counts[-1] is the overflow bucket.
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.stats = RunningStats()

    def add(self, value: float) -> None:
        self.stats.add(value)
        self.counts[bisect_right(self.bounds, value)] += 1

    def extend(self, values: Iterable[float]) -> None:
        stats, counts, bounds = self.stats, self.counts, self.bounds
        for value in values:
            stats.add(value)
            counts[bisect_right(bounds, value)] += 1

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def stdev(self) -> float:
        return self.stats.stdev

    @property
    def minimum(self) -> float:
        return self.stats.minimum

    @property
    def maximum(self) -> float:
        return self.stats.maximum

    @property
    def total(self) -> float:
        return self.stats.total

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]), clamped to the observed range.

        Linear interpolation between the owning bucket's edges; the first
        bucket's lower edge is the exact observed minimum and the overflow
        bucket collapses to the exact observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.stats.count == 0:
            raise ValueError("no samples")
        target = q * self.stats.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index == len(self.bounds):  # overflow bucket
                    return self.stats.maximum
                low = (
                    self.bounds[index - 1]
                    if index > 0
                    else min(self.stats.minimum, self.bounds[0])
                )
                high = self.bounds[index]
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.stats.minimum), self.stats.maximum)
        return self.stats.maximum

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max as a flat dict (zeros when empty)."""
        if self.stats.count == 0:
            return {
                "count": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        return {
            "count": float(self.stats.count),
            "mean": self.stats.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.stats.maximum,
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "LatencyStat(empty)"
        return (
            f"LatencyStat(n={self.count}, mean={self.mean:.2f}, "
            f"p99={self.p99:.2f}, max={self.maximum:.2f})"
        )
