"""Workload model, generators, trace I/O and replay tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import (
    ArrivalProcess,
    OpKind,
    Replayer,
    Request,
    clamp_requests,
    hot_cold_writes,
    load_trace,
    mixed_read_write,
    parse_trace_line,
    save_trace,
    sequential_fill,
    small_large_mix,
    uniform_random_writes,
    zipf_writes,
)
from repro.workloads.trace import TraceFormatError


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(time_us=-1, op=OpKind.WRITE, lpn=0)
        with pytest.raises(ValueError):
            Request(time_us=0, op=OpKind.WRITE, lpn=-1)
        with pytest.raises(ValueError):
            Request(time_us=0, op=OpKind.WRITE, lpn=0, pages=0)

    def test_lpns(self):
        r = Request(time_us=0, op=OpKind.WRITE, lpn=5, pages=3)
        assert list(r.lpns()) == [5, 6, 7]
        assert r.end_lpn == 7

    def test_op_parse(self):
        assert OpKind.parse("r") is OpKind.READ
        assert OpKind.parse("WRITE") is OpKind.WRITE
        assert OpKind.parse(" T ") is OpKind.TRIM
        with pytest.raises(ValueError):
            OpKind.parse("x")

    def test_clamp(self):
        requests = [
            Request(time_us=0, op=OpKind.WRITE, lpn=8, pages=4),
            Request(time_us=1, op=OpKind.WRITE, lpn=20, pages=1),
            Request(time_us=2, op=OpKind.WRITE, lpn=0, pages=2),
        ]
        clamped, dropped, trimmed = clamp_requests(requests, 10)
        assert len(clamped) == 2
        assert clamped[0].pages == 2  # trimmed at the boundary
        assert clamped[1].lpn == 0
        assert (dropped, trimmed) == (1, 1)


class TestGenerators:
    def test_sequential_covers_space(self):
        requests = sequential_fill(100, pages_per_request=8)
        touched = sorted(lpn for r in requests for lpn in r.lpns())
        assert touched == list(range(100))

    def test_uniform_in_range(self):
        requests = uniform_random_writes(50, 200, seed=1)
        assert len(requests) == 200
        assert all(0 <= r.lpn < 50 for r in requests)

    def test_zipf_skew(self):
        requests = zipf_writes(1000, 3000, theta=1.3, seed=2)
        counts = {}
        for r in requests:
            counts[r.lpn] = counts.get(r.lpn, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # the hottest page absorbs far more than the uniform share
        assert top[0] > 3000 / 1000 * 10

    def test_zipf_theta_validation(self):
        with pytest.raises(ValueError):
            zipf_writes(10, 10, theta=1.0)

    def test_mixed_reads_only_written(self):
        requests = mixed_read_write(100, 500, read_fraction=0.5, seed=3)
        written = set()
        for r in requests:
            if r.op is OpKind.WRITE:
                written.add(r.lpn)
            else:
                assert r.lpn in written

    def test_mixed_fraction_validation(self):
        with pytest.raises(ValueError):
            mixed_read_write(10, 10, read_fraction=1.5)

    def test_hot_cold_concentration(self):
        requests = hot_cold_writes(1000, 2000, hot_fraction=0.1, hot_probability=0.9, seed=4)
        hot = sum(1 for r in requests if r.lpn < 100)
        assert hot / len(requests) > 0.8

    def test_hot_cold_validation(self):
        with pytest.raises(ValueError):
            hot_cold_writes(10, 10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            hot_cold_writes(10, 10, hot_probability=1.5)

    def test_small_large_mix(self):
        requests = small_large_mix(1000, 300, small_fraction=0.5, seed=5)
        sizes = {r.pages for r in requests}
        assert sizes == {1, 32}

    def test_determinism(self):
        a = zipf_writes(100, 50, seed=9)
        b = zipf_writes(100, 50, seed=9)
        assert [(r.lpn, r.time_us) for r in a] == [(r.lpn, r.time_us) for r in b]

    def test_arrival_times_increasing(self):
        requests = uniform_random_writes(50, 100, seed=6)
        times = [r.time_us for r in requests]
        assert times == sorted(times)

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess(0.0).times(5, np.random.default_rng(0))


class TestTraceIO:
    def test_parse_line(self):
        r = parse_trace_line("12.5,W,100,4")
        assert (r.time_us, r.op, r.lpn, r.pages) == (12.5, OpKind.WRITE, 100, 4)
        r3 = parse_trace_line("0,R,5")
        assert r3.pages == 1

    def test_parse_errors(self):
        with pytest.raises(TraceFormatError):
            parse_trace_line("1,W")
        with pytest.raises(TraceFormatError):
            parse_trace_line("x,W,1,1")
        with pytest.raises(TraceFormatError):
            parse_trace_line("-5,W,1,1")

    def test_roundtrip(self, tmp_path):
        requests = uniform_random_writes(100, 50, seed=7)
        path = tmp_path / "trace.csv"
        count = save_trace(path, requests, header="test trace")
        assert count == 50
        loaded = load_trace(path)
        assert len(loaded) == 50
        for original, read in zip(requests, loaded):
            assert read.lpn == original.lpn
            assert read.op == original.op
            assert read.time_us == pytest.approx(original.time_us, abs=1e-3)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header\n\n0,W,1,1\n")
        assert len(load_trace(path)) == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e6, allow_nan=False),
                st.sampled_from(list(OpKind)),
                st.integers(0, 10_000),
                st.integers(1, 64),
            ),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, rows):
        import tempfile
        from pathlib import Path

        requests = [Request(round(t, 3), op, lpn, pages) for t, op, lpn, pages in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_trace(path, requests)
            loaded = load_trace(path)
        assert [(r.op, r.lpn, r.pages) for r in loaded] == [
            (r.op, r.lpn, r.pages) for r in requests
        ]


class TestReplayer:
    def test_replay_summary(self):
        from repro.ftl import Ftl, FtlConfig
        from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
        from repro.ssd import Ssd

        model = VariationModel(
            SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=13
        )
        chips = [FlashChip(model.chip_profile(c), SMALL_GEOMETRY) for c in range(3)]
        ftl = Ftl(chips, FtlConfig(usable_blocks_per_plane=10, overprovision_ratio=0.3))
        ftl.format()
        replayer = Replayer(Ssd(ftl))
        report = replayer.replay(
            mixed_read_write(ftl.logical_pages, 200, seed=8,
                             arrivals=ArrivalProcess(2000.0))
        )
        summary = report.summary()
        assert "WRITE" in summary
        assert report.mean_write_us() > 0
        assert report.p99_write_us() >= report.mean_write_us() * 0.5
        # out-of-range requests are clamped silently
        assert len(report.completed) == 200
