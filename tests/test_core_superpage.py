"""SuperpagePredictor tests."""

import numpy as np
import pytest

from repro.core.gathering import GatheringUnit
from repro.core.superpage import SuperpagePredictor
from repro.nand import SMALL_GEOMETRY


def make_record_and_matrix(lane, block, seed, fast_string=None):
    """A gathered record; optionally force one string to be clearly fastest."""
    rng = np.random.default_rng(seed)
    g = SMALL_GEOMETRY
    matrix = rng.normal(1700, 5, size=(g.layers_per_block, g.strings_per_layer))
    if fast_string is not None:
        matrix[:, fast_string] -= 60.0
    record = GatheringUnit(g).gather_measurement(lane, 0, block, matrix)
    return record, matrix


@pytest.fixture()
def predictor():
    return SuperpagePredictor(SMALL_GEOMETRY, lanes=[0, 1])


class TestLearning:
    def test_observe_validation(self, predictor):
        with pytest.raises(ValueError):
            predictor.observe(0, 0, 1700.0, eigen_bit=2)
        with pytest.raises(ValueError):
            predictor.observe(0, SMALL_GEOMETRY.lwls_per_block, 1700.0, 0)

    def test_ready_requires_all_lanes(self, predictor):
        assert not predictor.ready()
        predictor.observe(0, 0, 1700.0, 0)
        assert not predictor.ready()
        predictor.observe(1, 0, 1700.0, 0)
        assert predictor.ready()

    def test_lane_curve_learned(self, predictor):
        record, matrix = make_record_and_matrix(0, 0, seed=1)
        predictor.observe_record(record, matrix)
        flat = matrix.reshape(-1)
        for lwl in (0, 5, SMALL_GEOMETRY.lwls_per_block - 1):
            assert predictor.lane_curve_value(0, lwl) == pytest.approx(flat[lwl])

    def test_unseen_lwl_falls_back_to_lane_mean(self, predictor):
        predictor.observe(0, 0, 1000.0, 0)
        predictor.observe(0, 1, 2000.0, 1)
        assert predictor.lane_curve_value(0, 5) == pytest.approx(1500.0)

    def test_no_data_lane_mean_zero(self, predictor):
        assert predictor.lane_curve_value(0, 3) == 0.0
        assert predictor.bit_adjustment(0, 0) == 0.0


class TestBitAdjustment:
    def test_fast_bit_negative_adjustment(self, predictor):
        record, matrix = make_record_and_matrix(0, 0, seed=2, fast_string=1)
        predictor.observe_record(record, matrix)
        assert predictor.bit_adjustment(0, 0) < 0
        assert predictor.bit_adjustment(0, 1) > 0

    def test_prediction_orders_members(self, predictor):
        # two blocks with opposite fast strings: wherever their eigen bits
        # disagree, prediction must prefer the block whose bit says "fast"
        fast_record, fast_matrix = make_record_and_matrix(0, 0, seed=3, fast_string=0)
        slow_record, slow_matrix = make_record_and_matrix(0, 1, seed=4, fast_string=3)
        predictor.observe_record(fast_record, fast_matrix)
        predictor.observe_record(slow_record, slow_matrix)
        lwl = next(
            i
            for i in range(len(fast_record.eigen))
            if fast_record.eigen[i] == 0 and slow_record.eigen[i] == 1
        )
        assert predictor.predict_member(fast_record, lwl) < predictor.predict_member(
            slow_record, lwl
        )


class TestSuperwl:
    def test_max_semantics(self, predictor):
        a, ma = make_record_and_matrix(0, 0, seed=5)
        b, mb = make_record_and_matrix(1, 0, seed=6)
        predictor.observe_record(a, ma)
        predictor.observe_record(b, mb)
        combined = predictor.predict_superwl([a, b], 3)
        assert combined == pytest.approx(
            max(predictor.predict_member(a, 3), predictor.predict_member(b, 3))
        )

    def test_empty_members(self, predictor):
        with pytest.raises(ValueError):
            predictor.predict_superwl([], 0)

    def test_prediction_correlates_with_truth(self):
        # Learned model must rank word-lines usefully: predicted vs actual
        # latency correlation on held-out blocks should be clearly positive.
        from repro.nand import FlashChip, VariationModel, VariationParams

        model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=8)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        predictor = SuperpagePredictor(SMALL_GEOMETRY, lanes=[0])
        unit = GatheringUnit(SMALL_GEOMETRY)
        records = {}
        for block in range(12):
            chip.erase_block(0, block)
            lat = chip.program_block(0, block).latencies_us.reshape(
                SMALL_GEOMETRY.layers_per_block, SMALL_GEOMETRY.strings_per_layer
            )
            record = unit.gather_measurement(0, 0, block, lat, 0)
            records[block] = (record, lat.reshape(-1))
            if block < 8:  # train on the first 8
                predictor.observe_record(record, lat)
        predictions, actuals = [], []
        for block in range(8, 12):  # held out
            record, flat = records[block]
            for lwl in range(SMALL_GEOMETRY.lwls_per_block):
                predictions.append(predictor.predict_member(record, lwl))
                actuals.append(flat[lwl])
        corr = float(np.corrcoef(predictions, actuals)[0, 1])
        assert corr > 0.5
