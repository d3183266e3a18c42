"""Analysis layer tests: experiment drivers, tables, figure helpers."""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE5,
    TABLE1_METHODS,
    TABLE2_METHODS,
    TABLE5_METHODS,
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
)
from repro.assembly import build_lane_pools, evaluate_assembler
from repro.characterization import Prober
from repro.exp import MethodEvaluator, SimConfig, Sweep, build_stack, make_assembler
from repro.exp import run as run_sweep
from repro.nand import SMALL_GEOMETRY, VariationParams
from repro.utils.stats import Histogram

SMALL_TESTBED = SimConfig.testbed(
    seed=7, chips=3, pool_blocks=16, geometry=SMALL_GEOMETRY
)


@pytest.fixture(scope="module")
def pools():
    return build_stack(SMALL_TESTBED).pools()


@pytest.fixture(scope="module")
def evaluator(pools):
    return MethodEvaluator(pools)


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
        _, rows = run_methods(pools, TABLE2_METHODS)
        assert list(rows) == ["STR-RANK(8)", "STR-RANK(6)", "STR-RANK(4)", "STR-RANK(2)"]

    def test_table5(self, pools):
        baseline, rows = run_methods(pools, TABLE5_METHODS)
        assert "QSTR-MED(4)" in rows
        text = render_table5(baseline, rows)
        assert "RANDOM" in text and "paper PGM" in text

    def test_fig5_series(self):
        series = fig5_characterization(
            SMALL_TESTBED.with_(pool_blocks=6), curve_blocks=(0, 1)
        )
        assert len(series.erase_by_chip_plane) == 3 * SMALL_GEOMETRY.planes_per_chip
        assert (0, 0) in series.program_curves
        curve = series.program_curves[(0, 0)]
        assert curve.shape == (SMALL_GEOMETRY.lwls_per_block,)

    def test_fig5_probes_a_fresh_stack(self):
        # Figure 5 must not depend on what ran before it: after another
        # stack of the same config has been probed, its series still equal
        # a first probe of every block.  Paper geometry, because one extra
        # P/E cycle visibly moves some of its quantized tPROG curves.
        config = SimConfig.testbed(
            seed=7, chips=2, pool_blocks=4, variation=VariationParams(factory_bad_ratio=0.0)
        )
        build_stack(config).pools()
        series = fig5_characterization(config, curve_blocks=(0, 1, 2, 3))
        for chip in build_stack(config).chips:
            prober = Prober(chip)
            for plane in range(config.geometry.planes_per_chip):
                fresh = [prober.probe_block(plane, block) for block in range(4)]
                assert series.erase_by_chip_plane[(chip.chip_id, plane)] == [
                    (m.block, m.erase_latency_us) for m in fresh
                ]
                if plane == 0:
                    for m in fresh:
                        np.testing.assert_array_equal(
                            series.program_curves[(chip.chip_id, m.block)],
                            m.lwl_latencies(),
                        )

    def test_fig6(self, evaluator):
        series = fig6_random_extra(evaluator)
        assert len(series.extra_program_us) == 16
        assert series.mean_program > 0
        assert series.mean_erase >= 0

    def test_fig13(self, pools):
        baseline, rows = run_methods(pools, ["STR-MED(4)"])
        hists = fig13_distributions(rows, baseline, bins=10)
        assert set(hists) == {"RANDOM", "STR-MED(4)"}
        for hist in hists.values():
            assert hist.total == 16

    def test_fig14(self, evaluator):
        series = fig14_per_superblock(evaluator)
        assert len(series.str_med) == len(series.qstr_med) == len(series.random) == 16

    def test_figures_read_the_evaluators_memoized_results(self, pools, evaluator):
        # Figures 6 and 14 equal a fresh assembly of the same pools by each
        # method (RANDOM at the evaluator's baseline seed), and share one
        # RANDOM result instead of assembling it again.
        fresh = {
            name: evaluate_assembler(make_assembler(name, seed=1), pools)
            for name in ("RANDOM", "STR-MED(4)", "QSTR-MED(4)")
        }
        six = fig6_random_extra(evaluator)
        assert six.extra_program_us == fresh["RANDOM"].extra_program_us
        assert six.extra_erase_us == fresh["RANDOM"].extra_erase_us
        fourteen = fig14_per_superblock(evaluator)
        assert fourteen.random == fresh["RANDOM"].extra_program_us
        assert fourteen.str_med == fresh["STR-MED(4)"].extra_program_us
        assert fourteen.qstr_med == fresh["QSTR-MED(4)"].extra_program_us
        assert fourteen.random is six.extra_program_us

    def test_fig15_pe_cells_equal_one_testbed_worn_in_order(self):
        # Figure 15 is the ``methods`` sweep over ``pe_cycles``: each cell
        # wears a fresh copy of the chips to its epoch.  That must equal the
        # paper's chamber runs, which re-probe one set of chips at
        # ascending P/E.
        base = SimConfig.testbed(seed=11, chips=2, pool_blocks=12, geometry=SMALL_GEOMETRY)
        sweep = Sweep("methods", base=base, params={"methods": ["QSTR-MED(4)"]}).over(
            "pe_cycles", (0, 40, 100)
        )
        cells = [cell.result for cell in run_sweep(sweep).cells]
        chips = build_stack(base).chips
        for cell, pe in zip(cells, (0, 40, 100)):
            pools = build_lane_pools(chips, range(base.pool_blocks), target_pe=pe)
            row = MethodEvaluator(pools).row("QSTR-MED(4)")
            assert cell["pe_cycles"] == pe
            for doc, result in (
                (cell["baseline"], row.baseline),
                (cell["methods"]["QSTR-MED(4)"], row.result),
            ):
                assert doc["superblocks"] == result.superblock_count
                assert doc["mean_extra_program_us"] == result.mean_extra_program_us
                assert doc["mean_extra_erase_us"] == result.mean_extra_erase_us


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("---")

    def test_paper_constants_present(self):
        assert PAPER_TABLE1["OPTIMAL(8)"][1] == 19.49
        assert PAPER_TABLE5["RANDOM"][0] == 13084.17

    @pytest.mark.parametrize(
        "methods, paper",
        [
            (TABLE1_METHODS, PAPER_TABLE1),
            (TABLE2_METHODS, PAPER_TABLE2),
            (TABLE5_METHODS, {k: v for k, v in PAPER_TABLE5.items() if k != "RANDOM"}),
        ],
        ids=["table1", "table2", "table5"],
    )
    def test_method_lists_are_the_paper_rows(self, methods, paper):
        # every row a table prints has the paper's number beside it, in the
        # paper's order, and names a method the registry can build
        assert tuple(methods) == tuple(paper)
        for name in methods:
            make_assembler(name, seed=1)

    def test_paper_tables_workload_measures_every_table_row(self):
        # the benchmark restates the directions; they must stay the union
        from perfbench.workloads import DIRECTIONS

        rows = set(TABLE1_METHODS) | set(TABLE2_METHODS) | set(TABLE5_METHODS)
        assert len(set(DIRECTIONS)) == len(DIRECTIONS) == 12
        assert set(DIRECTIONS) == rows

    def test_render_table1_and_2(self, pools):
        _, rows1 = run_methods(pools, ["SEQUENTIAL"])
        assert "SEQUENTIAL" in render_table1(rows1)
        _, rows2 = run_methods(pools, ["STR-RANK(2)"])
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
