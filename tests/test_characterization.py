"""Characterization harness tests: measurements, prober, statistics."""

import numpy as np
import pytest

from repro.assembly import build_lane_pools
from repro.characterization import (
    BlockMeasurement,
    Prober,
    mean_lwl_curve,
    residual_trend_correlation,
    variability_report,
    wordline_trend_correlation,
)
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams

from tests.conftest import make_chips


def make_measurement(chip_id=0, plane=0, block=0, value=10.0, ers=100.0, shape=(4, 4)):
    matrix = np.full(shape, value)
    matrix.setflags(write=False)
    return BlockMeasurement(
        chip_id=chip_id,
        plane=plane,
        block=block,
        pe_cycles=0,
        wl_latencies_us=matrix,
        erase_latency_us=ers,
    )


class TestBlockMeasurement:
    def test_program_total(self):
        m = make_measurement(value=2.0, shape=(3, 4))
        assert m.program_total_us == pytest.approx(24.0)

    def test_lwl_flattening_layer_major(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        matrix.setflags(write=False)
        m = BlockMeasurement(0, 0, 0, 0, matrix, 1.0)
        assert list(m.lwl_latencies()[:4]) == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            BlockMeasurement(0, 0, 0, 0, np.zeros(4), 1.0)

    def test_key_and_repr(self):
        m = make_measurement(chip_id=2, plane=1, block=7)
        assert m.key() == (2, 1, 7)
        assert "c2/p1/b7" in repr(m)


class TestProber:
    @pytest.fixture()
    def chip(self, small_model):
        return make_chips(small_model, 1)[0]

    def test_probe_block_shapes(self, chip):
        prober = Prober(chip)
        m = prober.probe_block(0, 0)
        g = SMALL_GEOMETRY
        assert m.wl_latencies_us.shape == (g.layers_per_block, g.strings_per_layer)
        assert m.erase_latency_us > 0
        assert m.pe_cycles == 1  # the probe erased once

    def test_probe_matches_chip_state(self, chip):
        prober = Prober(chip)
        prober.probe_block(0, 1)
        assert chip.is_fully_programmed(0, 1)

    def test_try_probe_block_skips_bad(self):
        params = VariationParams(factory_bad_ratio=0.5)
        model = VariationModel(SMALL_GEOMETRY, params, seed=9)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        prober = Prober(chip)
        bad = [block for block in range(10) if chip.is_bad(0, block)]
        results = [prober.try_probe_block(0, block) for block in range(10)]
        assert bad
        assert [block for block, m in enumerate(results) if m is None] == bad

    def test_bring_to_pe(self, chip):
        prober = Prober(chip)
        prober.bring_to_pe(0, 2, 50)
        assert chip.pe_cycles(0, 2) == 50
        with pytest.raises(ValueError):
            prober.bring_to_pe(0, 2, 10)

    def test_probe_at_pe(self, chip):
        prober = Prober(chip)
        m = prober.probe_block_at_pe(0, 3, 100)
        assert m.pe_cycles == 101

    def test_lane_pools_probe_every_listed_plane(self, small_model):
        # the one probe loop: one lane per chip, plane-major, bad blocks skipped
        chips = make_chips(small_model, 2)
        pools = build_lane_pools(chips, range(4), planes=(0, 1))
        for lane, (chip, pool) in enumerate(zip(chips, pools)):
            assert pool.lane == lane
            assert {m.chip_id for m in pool.blocks} == {chip.chip_id}
            assert [(m.plane, m.block) for m in pool.blocks] == [
                (plane, block)
                for plane in (0, 1)
                for block in range(4)
                if not chip.is_bad(plane, block)
            ]


class TestStatistics:
    def test_variability_report(self, small_pools):
        # pools reuse chips 0..3 as lanes; measurement chip ids match
        measurements = [m for pool in small_pools for m in pool.blocks]
        report = variability_report(measurements, "program_total")
        assert report.within_chip_std > 0
        assert report.cross_chip_std > 0
        assert report.cross_to_within_ratio > 0

    def test_variability_report_groups_by_chip_id(self, small_pools):
        # blocks interleaved across chips, from a generator, group exactly
        # as they do pool by pool
        depth = min(len(pool) for pool in small_pools)
        columns = [pool.blocks[:depth] for pool in small_pools]
        by_pool = [m for blocks in columns for m in blocks]
        interleaved = (m for row in zip(*columns) for m in row)
        assert variability_report(interleaved, "erase") == variability_report(
            by_pool, "erase"
        )

    def test_variability_requires_two_chips(self):
        with pytest.raises(ValueError):
            variability_report([make_measurement(chip_id=0)])

    def test_unknown_metric(self):
        measurements = [make_measurement(chip_id=0), make_measurement(chip_id=1)]
        with pytest.raises(ValueError):
            variability_report(measurements, "bogus")

    def test_trend_correlation_same_block(self, small_pools):
        m = small_pools[0].blocks[0]
        assert wordline_trend_correlation(m, m) == pytest.approx(1.0)

    def test_trend_correlation_within_vs_residual(self, small_pools):
        a, b = small_pools[0].blocks[0], small_pools[1].blocks[0]
        raw = wordline_trend_correlation(a, b)
        common = mean_lwl_curve([m for pool in small_pools for m in pool.blocks])
        residual = residual_trend_correlation(a, b, common)
        # The common layer shape dominates raw correlation across chips;
        # removing it exposes the chip difference.
        assert raw > residual

    def test_mean_curve_empty(self):
        with pytest.raises(ValueError):
            mean_lwl_curve([])

    def test_constant_curves(self):
        a = make_measurement(value=5.0)
        b = make_measurement(value=5.0)
        assert wordline_trend_correlation(a, b) == 1.0
