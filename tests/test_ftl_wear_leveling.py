"""Wear-leveling tests: the leveler unit and its FTL integration."""

import numpy as np
import pytest

from repro.ftl import Ftl, FtlConfig, WearLeveler, WearLevelingConfig
from repro.ftl.wear_leveling import WearReport
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
from repro.obs import NULL_TRACER


def make_chips(count=2, seed=17):
    model = VariationModel(
        SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=seed
    )
    return [FlashChip(model.chip_profile(c), SMALL_GEOMETRY) for c in range(count)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WearLevelingConfig(pe_gap_threshold=0)
        with pytest.raises(ValueError):
            WearLevelingConfig(check_interval_erases=0)


class TestWearLeveler:
    def make(self, chips, blocks=4, **kwargs):
        usable = [(lane, 0, b) for lane in range(len(chips)) for b in range(blocks)]
        return WearLeveler(
            dict(enumerate(chips)), usable, WearLevelingConfig(**kwargs)
        )

    def test_requires_usable(self):
        with pytest.raises(ValueError):
            WearLeveler({}, [], WearLevelingConfig())

    def test_note_erase_interval(self):
        leveler = self.make(make_chips(), check_interval_erases=3)
        assert not leveler.note_erase()
        assert not leveler.note_erase()
        assert leveler.note_erase()
        assert not leveler.note_erase()  # counter reset

    def test_report_and_gap(self):
        chips = make_chips()
        chips[0].stress_block(0, 0, 50)
        leveler = self.make(chips, pe_gap_threshold=10)
        report = leveler.report()
        assert isinstance(report, WearReport)
        assert report.max_pe == 50
        assert report.min_pe == 0
        assert report.gap == 50
        assert leveler.gap_exceeded()

    def test_gap_not_exceeded_when_even(self):
        leveler = self.make(make_chips(), pe_gap_threshold=10)
        assert not leveler.gap_exceeded()

    def test_coldest_superblock_selection(self):
        chips = make_chips()
        chips[0].stress_block(0, 0, 100)
        chips[1].stress_block(0, 0, 100)
        leveler = self.make(chips)
        hot_sb = (1, [(0, 0, 0), (1, 0, 0)])
        cold_sb = (2, [(0, 0, 1), (1, 0, 1)])
        assert leveler.nominate([hot_sb, cold_sb]) == 2
        assert leveler.rotations_triggered == 1

    def test_no_candidates(self):
        leveler = self.make(make_chips())
        assert leveler.nominate([]) is None

    def test_skips_rotation_when_coldest_is_hot(self):
        # if every sealed SB is hotter than the average, rotating gains nothing
        chips = make_chips()
        chips[0].stress_block(0, 0, 100)
        chips[1].stress_block(0, 0, 100)
        leveler = self.make(chips)
        hot_only = [(1, [(0, 0, 0), (1, 0, 0)])]
        assert leveler.nominate(hot_only) is None


class TestFtlIntegration:
    def build(self, wl: bool, seed=23, tracer=NULL_TRACER):
        chips = make_chips(3, seed=seed)
        config = FtlConfig(
            usable_blocks_per_plane=12,
            overprovision_ratio=0.35,
            gc_low_watermark=2,
            gc_high_watermark=3,
            wear_leveling=(
                WearLevelingConfig(pe_gap_threshold=6, check_interval_erases=4)
                if wl
                else None
            ),
        )
        ftl = Ftl(chips, config, tracer=tracer)
        ftl.format()
        return ftl

    def run_hot_cold(self, ftl, rounds=6):
        rng = np.random.default_rng(0)
        hot = max(1, ftl.logical_pages // 10)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for _ in range(ftl.logical_pages * rounds):
            if rng.random() < 0.95:
                ftl.write(int(rng.integers(hot)))
            else:
                ftl.write(int(rng.integers(hot, ftl.logical_pages)))
        ftl.flush()

    def test_leveler_reduces_wear_gap(self):
        plain = self.build(wl=False)
        self.run_hot_cold(plain)
        leveled = self.build(wl=True)
        self.run_hot_cold(leveled)

        def gap(ftl):
            pes = [
                ftl.chips[lane].pe_cycles(0, b)
                for lane in ftl.lanes
                for b in range(ftl.config.usable_blocks_per_plane)
            ]
            return max(pes) - min(pes)

        assert leveled.wear_leveler is not None
        assert leveled.wear_leveler.rotations_triggered > 0
        assert gap(leveled) < gap(plain)

    def test_integrity_preserved_under_rotation(self):
        ftl = self.build(wl=True)
        self.run_hot_cold(ftl, rounds=4)
        rng = np.random.default_rng(1)
        for lpn in rng.choice(ftl.logical_pages, size=80, replace=False):
            result = ftl.read(int(lpn))  # IntegrityError on corruption
            assert result.located

    def test_disabled_by_default(self):
        ftl = self.build(wl=False)
        assert ftl.wear_leveler is None
