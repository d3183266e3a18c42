"""Fixed-bucket latency histogram tests (repro.obs.histograms)."""

import pytest

from repro.obs.histograms import DEFAULT_LATENCY_BUCKETS_US, LatencyStat


class TestBucketLadder:
    def test_default_ladder_shape(self):
        assert DEFAULT_LATENCY_BUCKETS_US[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_US[-1] == 1e7
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US
        )

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            LatencyStat(())
        with pytest.raises(ValueError):
            LatencyStat((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            LatencyStat((5.0, 1.0))


class TestEmptyHistogram:
    def test_quantile_raises(self):
        stat = LatencyStat()
        with pytest.raises(ValueError):
            stat.quantile(0.5)

    def test_summary_is_zeros(self):
        summary = LatencyStat().summary()
        assert summary == {
            "count": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }

    def test_count_and_overflow(self):
        stat = LatencyStat()
        assert stat.count == 0
        assert not any(stat.counts)


class TestSingleSample:
    def test_all_quantiles_collapse_to_value(self):
        stat = LatencyStat()
        stat.add(137.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert stat.quantile(q) == pytest.approx(137.0)
        summary = stat.summary()
        assert summary["count"] == 1.0
        assert summary["mean"] == pytest.approx(137.0)
        assert summary["max"] == pytest.approx(137.0)

    def test_invalid_q(self):
        stat = LatencyStat()
        stat.add(1.0)
        with pytest.raises(ValueError):
            stat.quantile(-0.1)
        with pytest.raises(ValueError):
            stat.quantile(1.1)


class TestOverflowBucket:
    def test_overflow_reports_exact_maximum(self):
        stat = LatencyStat()
        stat.add(3e7)  # above the last 1e7 bound
        assert stat.counts[-1] == 1
        assert stat.quantile(0.99) == pytest.approx(3e7)
        assert stat.summary()["max"] == pytest.approx(3e7)

    def test_overflow_mixes_with_finite_buckets(self):
        stat = LatencyStat()
        stat.extend([10.0] * 99)
        stat.add(5e7)
        assert stat.counts[-1] == 1
        assert stat.quantile(0.5) <= 20.0
        assert stat.quantile(1.0) == pytest.approx(5e7)


class TestQuantiles:
    def test_monotone_and_clamped(self):
        stat = LatencyStat()
        stat.extend(float(v) for v in range(1, 1001))
        p50, p95, p99 = stat.quantile(0.5), stat.quantile(0.95), stat.quantile(0.99)
        assert stat.minimum <= p50 <= p95 <= p99 <= stat.maximum
        # Bucket interpolation stays within the ladder's ~2x resolution.
        assert 200.0 <= p50 <= 1000.0

    def test_extend_matches_repeated_add(self):
        values = [0.5, 3.0, 3.0, 250.0, 1e7, 2e7, 7.5]
        one, many = LatencyStat(), LatencyStat()
        one.extend(values)
        for value in values:
            many.add(value)
        assert one.counts == many.counts
        assert one.summary() == many.summary()


class TestLatencyStat:
    def test_running_stats_surface(self):
        stat = LatencyStat()
        stat.extend([100.0, 200.0, 300.0])
        assert stat.count == 3
        assert stat.mean == pytest.approx(200.0)
        assert stat.total == pytest.approx(600.0)
        assert stat.minimum == pytest.approx(100.0)
        assert stat.maximum == pytest.approx(300.0)
        assert stat.stdev > 0

    def test_tail_surface(self):
        stat = LatencyStat()
        stat.extend([10.0] * 99 + [10_000.0])
        assert stat.p50 < stat.p99 <= stat.maximum
        summary = stat.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert stat.quantile(1.0) == pytest.approx(10_000.0)

    def test_empty_repr_and_quantile(self):
        stat = LatencyStat()
        assert "empty" in repr(stat)
        with pytest.raises(ValueError):
            _ = stat.p99
