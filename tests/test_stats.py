"""RunningStats / Histogram / percentile tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import Histogram, RunningStats, percentile, summarize

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestRunningStats:
    def test_empty_raises(self):
        stats = RunningStats()
        with pytest.raises(ValueError):
            stats.mean
        with pytest.raises(ValueError):
            stats.variance
        with pytest.raises(ValueError):
            stats.minimum

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.minimum == stats.maximum == 5.0

    def test_matches_numpy(self):
        values = [1.0, 2.5, -3.0, 4.0, 4.0]
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values))
        assert stats.stdev == pytest.approx(np.std(values))
        assert stats.total == pytest.approx(sum(values))

    def test_repr(self):
        stats = RunningStats()
        assert "empty" in repr(stats)
        stats.add(1.0)
        assert "n=1" in repr(stats)


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(low=1, high=1, bins=3)
        with pytest.raises(ValueError):
            Histogram(low=0, high=1, bins=0)

    def test_binning(self):
        hist = Histogram(low=0, high=10, bins=5)
        hist.extend([0, 1.9, 2, 9.99])
        assert hist.counts == [2, 1, 0, 0, 1]
        assert hist.underflow == 0 and hist.overflow == 0

    def test_under_over_flow(self):
        hist = Histogram(low=0, high=10, bins=2)
        hist.add(-1)
        hist.add(10)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 2

    def test_edges_and_centers(self):
        hist = Histogram(low=0, high=4, bins=4)
        assert hist.bin_edges() == [0, 1, 2, 3, 4]
        assert hist.bin_centers() == [0.5, 1.5, 2.5, 3.5]

    def test_mode_center(self):
        hist = Histogram(low=0, high=4, bins=4)
        hist.extend([1.5, 1.6, 3.0])
        assert hist.mode_center() == 1.5
        empty = Histogram(low=0, high=1, bins=2)
        with pytest.raises(ValueError):
            empty.mode_center()

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=200))
    def test_total_conserved(self, values):
        hist = Histogram(low=10, high=90, bins=7)
        hist.extend(values)
        assert hist.total == len(values)


class TestPercentile:
    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_range_check(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single(self):
        assert percentile([3.0], 99) == 3.0

    @given(st.lists(floats, min_size=2, max_size=100), st.floats(0, 100))
    def test_matches_numpy(self, values, q):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-9, abs=1e-6
        )

    def test_summarize_keys(self):
        result = summarize([1.0, 2.0, 3.0])
        assert set(result) == {"count", "mean", "stdev", "min", "max", "p50", "p99"}
        assert result["count"] == 3.0
        assert result["p50"] == 2.0
