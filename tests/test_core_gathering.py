"""GatheringUnit and BlockRecord tests."""

import numpy as np
import pytest

from repro.assembly.base import CHUNK_BYTES, LanePool
from repro.characterization.datasets import BlockMeasurement
from repro.core.eigen import eigen_sequence
from repro.core.gathering import GatheringError, GatheringUnit
from repro.core.records import BlockRecord
from repro.core.scheme import gather_pool
from repro.exp import SimConfig
from repro.exp.build import build_stack
from repro.nand import PAPER_GEOMETRY, SMALL_GEOMETRY
from repro.utils.bitvec import BitVector


@pytest.fixture()
def unit():
    return GatheringUnit(SMALL_GEOMETRY)


def feed_block(unit, lane=0, plane=0, block=0, seed=0, pe=0):
    rng = np.random.default_rng(seed)
    g = SMALL_GEOMETRY
    matrix = rng.normal(1700, 10, size=(g.layers_per_block, g.strings_per_layer))
    unit.open_block(lane, plane, block, pe)
    record = None
    for lwl in range(g.lwls_per_block):
        layer, string = divmod(lwl, g.strings_per_layer)
        record = unit.report(lane, plane, block, lwl, float(matrix[layer, string]))
    return record, matrix


class TestLifecycle:
    def test_open_twice_rejected(self, unit):
        unit.open_block(0, 0, 0)
        with pytest.raises(GatheringError):
            unit.open_block(0, 0, 0)

    def test_report_unopened_rejected(self, unit):
        with pytest.raises(GatheringError):
            unit.report(0, 0, 0, 0, 1000.0)

    def test_out_of_order_rejected(self, unit):
        unit.open_block(0, 0, 0)
        unit.report(0, 0, 0, 0, 1000.0)
        with pytest.raises(GatheringError):
            unit.report(0, 0, 0, 2, 1000.0)

    def test_abandon(self, unit):
        unit.open_block(0, 0, 0)
        assert unit.open_count == 1
        unit.abandon_block(0, 0, 0)
        assert unit.open_count == 0
        unit.abandon_block(0, 0, 9)  # idempotent

    def test_completion_closes_block(self, unit):
        record, _ = feed_block(unit)
        assert record is not None
        assert not unit.is_open(0, 0, 0)
        assert unit.completed == [record]


class TestRecordContents:
    def test_latency_sum(self, unit):
        record, matrix = feed_block(unit)
        assert record.pgm_total_us == pytest.approx(matrix.sum())

    def test_eigen_matches_offline(self, unit):
        record, matrix = feed_block(unit)
        assert record.eigen == eigen_sequence(matrix)

    def test_callback_invoked(self):
        seen = []
        unit = GatheringUnit(SMALL_GEOMETRY, seen.append)
        record, _ = feed_block(unit)
        assert seen == [record]

    def test_pe_cycles_recorded(self, unit):
        record, _ = feed_block(unit, pe=42)
        assert record.pe_cycles == 42

    def test_gather_measurement_helper(self, unit):
        rng = np.random.default_rng(3)
        g = SMALL_GEOMETRY
        matrix = rng.normal(1700, 10, size=(g.layers_per_block, g.strings_per_layer))
        record = unit.gather_measurement(1, 0, 5, matrix, pe_cycles=7)
        assert record.lane == 1 and record.block == 5
        assert record.pgm_total_us == pytest.approx(matrix.sum())


def _measured(plane, block, pe, seed, geometry=SMALL_GEOMETRY):
    """A block whose even layers hold a tied string pair."""
    rng = np.random.default_rng(seed)
    shape = (geometry.layers_per_block, geometry.strings_per_layer)
    matrix = np.round(rng.normal(1700, 10, size=shape), 1)
    matrix[::2, 2] = matrix[::2, 0]
    matrix.setflags(write=False)
    return BlockMeasurement(0, plane, block, pe, matrix, 3000.0)


class TestBatchGather:
    """``gather_pool`` (one ``gather_stack`` per chunk) against one
    :meth:`GatheringUnit.gather_measurement` call per block, and both
    against the unit fed each block's word-lines one report at a time."""

    @staticmethod
    def _assert_matches_per_block(pool, geometry):
        batch = gather_pool(pool)
        unit = GatheringUnit(geometry)
        assert len(batch) == len(pool)
        for got, m in zip(batch, pool.blocks):
            want = unit.gather_measurement(
                pool.lane, m.plane, m.block, m.wl_latencies_us, m.pe_cycles
            )
            unit.open_block(pool.lane, m.plane, m.block, m.pe_cycles)
            for lwl, latency in enumerate(m.wl_latencies_us.reshape(-1).tolist()):
                fed = unit.report(pool.lane, m.plane, m.block, lwl, latency)
            for record in (got, want):
                assert record.key() == fed.key() == (pool.lane, m.plane, m.block)
                assert repr(record.pgm_total_us) == repr(fed.pgm_total_us), m.key()
                assert record.eigen == fed.eigen, m.key()
                assert record.pe_cycles == fed.pe_cycles == m.pe_cycles

    def test_pool_longer_than_one_chunk(self):
        pool = build_stack(SimConfig.testbed(seed=5, chips=2, pool_blocks=100)).pools()[1]
        lwls = PAPER_GEOMETRY.lwls_per_block
        assert pool.blocks[0].wl_latencies_us.size == lwls
        per_chunk = CHUNK_BYTES // (4 * 8 * lwls)
        assert len(pool) > 2 * per_chunk and len(pool) % per_chunk  # a short last chunk
        self._assert_matches_per_block(pool, PAPER_GEOMETRY)

    def test_pool_spanning_two_planes(self):
        blocks = [
            _measured(plane, block, pe=plane * 100 + block, seed=10 * plane + block)
            for block in range(6)
            for plane in (1, 0)
        ]
        self._assert_matches_per_block(LanePool(lane=2, blocks=blocks), SMALL_GEOMETRY)

    def test_one_block_pool(self):
        pool = LanePool(lane=3, blocks=[_measured(1, 31, pe=9, seed=4)])
        self._assert_matches_per_block(pool, SMALL_GEOMETRY)


class TestFootprint:
    def test_staging_only_open_blocks(self, unit):
        assert unit.staging_bytes() == 0
        unit.open_block(0, 0, 0)
        first = unit.staging_bytes()
        assert first > 0
        unit.open_block(0, 0, 1)
        assert unit.staging_bytes() > first
        unit.abandon_block(0, 0, 0)
        unit.abandon_block(0, 0, 1)
        assert unit.staging_bytes() == 0

    def test_record_metadata_bytes(self, unit):
        record, _ = feed_block(unit)
        g = SMALL_GEOMETRY
        expected = 4 + (g.lwls_per_block + 7) // 8
        assert record.metadata_bytes() == expected


class TestBlockRecord:
    def test_distance(self):
        a = BlockRecord(0, 0, 0, 1.0, BitVector([1, 0, 1, 0]))
        b = BlockRecord(1, 0, 0, 2.0, BitVector([1, 1, 1, 1]))
        assert a.distance_to(b) == 2

    def test_key_and_str(self):
        record = BlockRecord(2, 1, 30, 500.0, BitVector([0]))
        assert record.key() == (2, 1, 30)
        assert "lane2" in str(record)
