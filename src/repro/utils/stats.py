"""Streaming statistics and histogram helpers for the measurement harness.

The characterization and benchmark code accumulates millions of latency
samples; :class:`RunningStats` keeps O(1) state (Welford's algorithm) and the
:class:`Histogram` builds the distribution series behind Figure 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


class RunningStats:
    """Welford online mean/variance plus min/max tracking."""

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance."""
        if self._count == 0:
            raise ValueError("no samples")
        return self._m2 / self._count

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValueError("no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValueError("no samples")
        return self._max

    @property
    def total(self) -> float:
        return self._mean * self._count

    def __repr__(self) -> str:
        if self._count == 0:
            return "RunningStats(empty)"
        return (
            f"RunningStats(n={self._count}, mean={self._mean:.2f}, "
            f"std={self.stdev:.2f}, min={self._min:.2f}, max={self._max:.2f})"
        )


@dataclass
class Histogram:
    """Fixed-width-bin histogram over a closed range."""

    low: float
    high: float
    bins: int
    counts: List[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError("high must exceed low")
        if self.bins <= 0:
            raise ValueError("bins must be positive")
        if not self.counts:
            self.counts = [0] * self.bins

    @property
    def bin_width(self) -> float:
        return (self.high - self.low) / self.bins

    def add(self, value: float) -> None:
        if value < self.low:
            self.underflow += 1
            return
        if value >= self.high:
            self.overflow += 1
            return
        index = int((value - self.low) / self.bin_width)
        # Guard the high edge against float rounding.
        index = min(index, self.bins - 1)
        self.counts[index] += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[float]:
        width = self.bin_width
        return [self.low + i * width for i in range(self.bins + 1)]

    def bin_centers(self) -> List[float]:
        width = self.bin_width
        return [self.low + (i + 0.5) * width for i in range(self.bins)]

    def series(self) -> List[Tuple[float, int]]:
        """``(bin_center, count)`` pairs — the Figure 13 plot series."""
        return list(zip(self.bin_centers(), self.counts))

    def mode_center(self) -> float:
        """Center of the most populated bin."""
        if not any(self.counts):
            raise ValueError("empty histogram")
        index = max(range(self.bins), key=lambda i: self.counts[i])
        return self.bin_centers()[index]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    frac = rank - lower
    return ordered[lower] * (1 - frac) + ordered[upper] * frac


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean/std/min/max/p50/p99 of a sample, as a plain dict."""
    stats = RunningStats()
    stats.extend(values)
    return {
        "count": float(stats.count),
        "mean": stats.mean,
        "stdev": stats.stdev,
        "min": stats.minimum,
        "max": stats.maximum,
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
    }
