"""Analysis layer tests: experiment drivers, tables, figure helpers."""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_TABLE1,
    PAPER_TABLE5,
    cumulative_mean,
    fig5_characterization,
    fig6_random_extra,
    fig13_distributions,
    fig14_per_superblock,
    improvement_series,
    render_histogram,
    render_series_block,
    render_table,
    render_table1,
    render_table2,
    render_table5,
    run_methods,
    sparkline,
    table2_window_sweep,
    table5_extra_latency,
)
from repro.exp import SimConfig, build_stack
from repro.nand import SMALL_GEOMETRY
from repro.utils.stats import Histogram

SMALL_TESTBED = SimConfig.testbed(
    seed=7, chips=3, pool_blocks=16, geometry=SMALL_GEOMETRY
)


@pytest.fixture(scope="module")
def pools():
    return build_stack(SMALL_TESTBED).pools()


class TestDrivers:
    def test_run_methods_rows(self, pools):
        baseline, rows = run_methods(pools, ["SEQUENTIAL", "STR-MED(4)"])
        assert baseline.superblock_count == 16
        assert set(rows) == {"SEQUENTIAL", "STR-MED(4)"}
        row = rows["STR-MED(4)"]
        assert row.reduction_us == pytest.approx(
            baseline.mean_extra_program_us - row.result.mean_extra_program_us
        )

    def test_table2_names(self, pools):
        _, rows = table2_window_sweep(pools, windows=(4, 2))
        assert list(rows) == ["STR-RANK(4)", "STR-RANK(2)"]

    def test_table5(self, pools):
        baseline, rows = table5_extra_latency(pools)
        assert "QSTR-MED(4)" in rows
        text = render_table5(baseline, rows)
        assert "RANDOM" in text and "paper PGM" in text

    def test_fig5_series(self):
        chips = build_stack(SMALL_TESTBED).chips
        series = fig5_characterization(chips, erase_blocks=6, curve_blocks=(0, 1))
        assert len(series.erase_by_chip_plane) == 3 * SMALL_GEOMETRY.planes_per_chip
        assert (0, 0) in series.program_curves
        curve = series.program_curves[(0, 0)]
        assert curve.shape == (SMALL_GEOMETRY.lwls_per_block,)

    def test_fig6(self, pools):
        series = fig6_random_extra(pools)
        assert len(series.extra_program_us) == 16
        assert series.mean_program > 0
        assert series.mean_erase >= 0

    def test_fig13(self, pools):
        baseline, rows = run_methods(pools, ["STR-MED(4)"])
        hists = fig13_distributions(rows, baseline, bins=10)
        assert set(hists) == {"RANDOM", "STR-MED(4)"}
        for hist in hists.values():
            assert hist.total == 16

    def test_fig14(self, pools):
        series = fig14_per_superblock(pools)
        assert len(series.str_med) == len(series.qstr_med) == len(series.random) == 16


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("---")

    def test_paper_constants_present(self):
        assert PAPER_TABLE1["OPTIMAL(8)"][1] == 19.49
        assert PAPER_TABLE5["RANDOM"][0] == 13084.17

    def test_render_table1_and_2(self, pools):
        _, rows1 = run_methods(pools, ["SEQUENTIAL"])
        assert "SEQUENTIAL" in render_table1(rows1)
        _, rows2 = table2_window_sweep(pools, windows=(2,))
        assert "STR-RANK(2)" in render_table2(rows2)


class TestFigureHelpers:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert len(sparkline([1.0] * 10)) == 10
        assert len(sparkline(list(range(200)), width=50)) == 50

    def test_sparkline_monotone(self):
        line = sparkline([0, 1, 2, 3, 4, 5])
        assert line[0] == " " and line[-1] == "@"

    def test_render_series_block(self):
        text = render_series_block("title", {"a": [1.0, 2.0], "b": []})
        assert "title" in text and "(empty)" in text and "mean" in text

    def test_render_histogram(self):
        hist = Histogram(low=0, high=10, bins=2)
        hist.extend([1, 1, 6])
        text = render_histogram("h", hist)
        assert "#" in text

    def test_cumulative_mean(self):
        result = cumulative_mean([2.0, 4.0, 6.0])
        assert list(result) == [2.0, 3.0, 4.0]
        assert cumulative_mean([]).size == 0

    def test_improvement_series(self):
        result = improvement_series([100.0, 100.0], [50.0, 150.0])
        assert list(result) == [50.0, -50.0]
        with pytest.raises(ValueError):
            improvement_series([1.0], [1.0, 2.0])

    def test_improvement_series_zero_baseline(self):
        result = improvement_series([0.0], [1.0])
        assert result[0] == 0.0
