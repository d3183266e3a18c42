"""Placement policy and overhead accounting tests."""

import pytest

from repro.core.assembler import SpeedClass
from repro.core.overhead import (
    FootprintModel,
    lane_pairs,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.core.placement import (
    WriteIntent,
    WriteSource,
    prefers_fast_superpage,
    speed_class_for,
)
from repro.nand import PAPER_GEOMETRY
from repro.utils.units import TIB


class TestPlacement:
    def test_routing_by_write_source(self):
        assert speed_class_for(WriteIntent(WriteSource.HOST)) is SpeedClass.FAST
        assert speed_class_for(WriteIntent(WriteSource.GC)) is SpeedClass.SLOW
        assert speed_class_for(WriteIntent(WriteSource.METADATA)) is SpeedClass.SLOW

    def test_superpage_steering(self):
        # small random host writes (up to 8 pages) prefer fast superpages
        assert prefers_fast_superpage(
            WriteIntent(WriteSource.HOST, pages=8, sequential=False)
        )
        assert not prefers_fast_superpage(
            WriteIntent(WriteSource.HOST, pages=9, sequential=False)
        )
        assert not prefers_fast_superpage(
            WriteIntent(WriteSource.HOST, pages=2, sequential=True)
        )
        assert not prefers_fast_superpage(WriteIntent(WriteSource.GC, pages=1))


class TestComputingOverhead:
    """Section VI-B2's headline numbers."""

    def test_lane_pairs(self):
        assert lane_pairs(4) == 6
        with pytest.raises(ValueError):
            lane_pairs(1)

    def test_str_med_1536(self):
        # window 4, four chips: 256 combinations x 6 pairs (the paper's count)
        assert str_med_pair_checks(4, 4) == 1536

    def test_qstr_med_12(self):
        assert qstr_med_pair_checks(4, 4) == 12

    def test_reduction_99_22(self):
        assert overhead_reduction_pct() == pytest.approx(99.22, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            str_med_pair_checks(0, 4)
        with pytest.raises(ValueError):
            qstr_med_pair_checks(1, 4)
        with pytest.raises(ValueError):
            qstr_med_pair_checks(4, 0)


class TestSpaceOverhead:
    """Section VI-D1 / Equation 2."""

    def test_bytes_per_block_52(self):
        model = FootprintModel(PAPER_GEOMETRY)
        # 4 B latency + 384 bits = 48 B eigen -> 52 B (the paper's figure)
        assert model.eigen_bytes_per_block == 48
        assert model.bytes_per_block == 52

    def test_1tb_footprint_megabytes(self):
        model = FootprintModel(PAPER_GEOMETRY)
        footprint = model.footprint_bytes(TIB)
        # paper: ~6.5 MB for a 1 TB SSD of ~8 MB blocks; our geometry's block
        # is 18 MB user data, so the footprint is proportionally smaller but
        # must stay in the single-digit-MB range.
        assert 1_000_000 < footprint < 10_000_000

    def test_fraction_of_dram_tiny(self):
        model = FootprintModel(PAPER_GEOMETRY)
        assert model.footprint_fraction_of_dram() < 0.01

    def test_block_count_rounds_up(self):
        model = FootprintModel(PAPER_GEOMETRY)
        assert model.block_count_for_capacity(1) == 1
