"""FlashChip state machine tests."""

import pytest

from repro.nand import SMALL_GEOMETRY, FlashChip, PageType, VariationModel, VariationParams
from repro.nand.errors import (
    BadBlockError,
    EnduranceExceededError,
    ProgramOrderError,
    ProgramStateError,
    ReadStateError,
)


@pytest.fixture()
def chip():
    model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=21)
    return FlashChip(model.chip_profile(0), SMALL_GEOMETRY)


def find_good_block(chip, plane=0):
    for block in range(chip.geometry.blocks_per_plane):
        if not chip.is_bad(plane, block):
            return block
    raise AssertionError("no good block")


class TestEraseProgram:
    def test_program_requires_erase(self, chip):
        with pytest.raises(ProgramStateError):
            chip.program_wordline(0, 0, 0)

    def test_erase_then_program(self, chip):
        erase = chip.erase_block(0, 0)
        assert erase.latency_us > 0
        result = chip.program_wordline(0, 0, 0)
        assert result.latency_us > 0
        assert chip.programmed_lwls(0, 0) == 1

    def test_program_order_enforced(self, chip):
        chip.erase_block(0, 0)
        chip.program_wordline(0, 0, 0)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 0, 2)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 0, 0)

    def test_erase_resets_pointer_and_data(self, chip):
        chip.erase_block(0, 0)
        chip.program_wordline(0, 0, 0, data={PageType.LSB: "x"})
        chip.erase_block(0, 0)
        assert chip.programmed_lwls(0, 0) == 0
        with pytest.raises(ReadStateError):
            chip.read_page(0, 0, 0, PageType.LSB)

    def test_pe_counting(self, chip):
        assert chip.pe_cycles(0, 1) == 0
        chip.erase_block(0, 1)
        chip.erase_block(0, 1)
        assert chip.pe_cycles(0, 1) == 2

    def test_program_block_full(self, chip):
        chip.erase_block(0, 2)
        result = chip.program_block(0, 2)
        assert result.ok
        assert len(result.latencies_us) == SMALL_GEOMETRY.lwls_per_block
        assert chip.is_fully_programmed(0, 2)

    def test_program_full_block_then_more_fails(self, chip):
        chip.erase_block(0, 2)
        chip.program_block(0, 2)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 2, 0)

    def test_latency_deterministic_per_pe(self, chip):
        chip.erase_block(0, 3)
        first = chip.program_wordline(0, 3, 0).latency_us
        chip.erase_block(0, 3)
        # PE advanced by one -> latency may shift by the aging slope, but a
        # fresh chip at the same PE must reproduce it exactly.
        model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=21)
        other = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        other.erase_block(0, 3)
        assert other.program_wordline(0, 3, 0).latency_us == first


class TestReads:
    def test_read_back_payload(self, chip):
        chip.erase_block(1, 0)
        chip.program_wordline(1, 0, 0, data={PageType.LSB: 123, PageType.MSB: "m"})
        result, payload = chip.read_page(1, 0, 0, PageType.LSB)
        assert payload == 123
        assert result.latency_us > 0
        _, missing = chip.read_page(1, 0, 0, PageType.CSB)
        assert missing is None

    def test_read_unprogrammed_fails(self, chip):
        chip.erase_block(1, 1)
        with pytest.raises(ReadStateError):
            chip.read_page(1, 1, 0, PageType.LSB)

    def test_read_invalid_page_type(self, chip):
        chip.erase_block(1, 2)
        chip.program_wordline(1, 2, 0)
        with pytest.raises(ValueError):
            chip.read_page(1, 2, 0, PageType.TSB)


class TestEndurance:
    def test_wearout_retires_block(self):
        params = VariationParams(
            factory_bad_ratio=0.0, endurance_cycles=3, endurance_sigma_log=0.0
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        for _ in range(3):
            chip.erase_block(0, 0)
        with pytest.raises(EnduranceExceededError):
            chip.erase_block(0, 0)
        assert chip.is_bad(0, 0)
        with pytest.raises(BadBlockError):
            chip.erase_block(0, 0)

    def test_stress_block(self):
        params = VariationParams(factory_bad_ratio=0.0)
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        chip.stress_block(0, 0, 100)
        assert chip.pe_cycles(0, 0) == 100
        assert chip.programmed_lwls(0, 0) == 0
        chip.program_wordline(0, 0, 0)  # stress leaves block erased

    def test_stress_past_endurance(self):
        params = VariationParams(
            factory_bad_ratio=0.0, endurance_cycles=10, endurance_sigma_log=0.0
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        with pytest.raises(EnduranceExceededError):
            chip.stress_block(0, 0, 11)
        assert chip.is_bad(0, 0)

    def test_stress_negative(self, chip):
        with pytest.raises(ValueError):
            chip.stress_block(0, 0, -1)


class TestFactoryBad:
    def test_factory_bad_rejected(self):
        params = VariationParams(factory_bad_ratio=0.9)
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        bad = next(
            b for b in range(SMALL_GEOMETRY.blocks_per_plane) if chip.is_bad(0, b)
        )
        with pytest.raises(BadBlockError):
            chip.erase_block(0, bad)
