"""Assembly framework tests: pools, superblocks, windowed consumption."""

import numpy as np
import pytest

from repro.assembly.base import (
    LanePool,
    Superblock,
    WindowedAssembler,
    check_pools,
    min_total_distance_combo,
    pairwise_signature_distances,
)
from repro.characterization.datasets import BlockMeasurement


def measurement(chip, block, value, ers=100.0):
    matrix = np.full((2, 4), float(value))
    matrix.setflags(write=False)
    return BlockMeasurement(chip, 0, block, 0, matrix, ers)


def pools_of(size, lanes=3):
    return [
        LanePool(lane=l, blocks=[measurement(l, b, 10 * b + l) for b in range(size)])
        for l in range(lanes)
    ]


class TestSuperblock:
    def test_member_lane_alignment(self):
        with pytest.raises(ValueError):
            Superblock(members=(measurement(0, 0, 1),), lanes=(0, 1))

    def test_duplicate_lanes_rejected(self):
        members = (measurement(0, 0, 1), measurement(0, 1, 2))
        with pytest.raises(ValueError):
            Superblock(members=members, lanes=(0, 0))

    def test_latency_properties(self):
        sb = Superblock(
            members=(measurement(0, 0, 10, ers=90), measurement(1, 0, 12, ers=100)),
            lanes=(0, 1),
        )
        assert sb.extra_program_latency_us == pytest.approx(2.0 * 8)
        assert sb.extra_erase_latency_us == pytest.approx(10.0)
        assert sb.member_keys() == [(0, 0, 0), (1, 0, 0)]


class TestCheckPools:
    def test_happy_path(self):
        assert check_pools(pools_of(3)) == 3

    def test_uneven_pools(self):
        pools = pools_of(3)
        pools[1].blocks.pop()
        assert check_pools(pools) == 2

    def test_single_lane_rejected(self):
        with pytest.raises(ValueError):
            check_pools(pools_of(3, lanes=1))

    def test_duplicate_lanes_rejected(self):
        pools = pools_of(2, lanes=2)
        pools[1].lane = 0
        with pytest.raises(ValueError):
            check_pools(pools)

    def test_empty_pool_rejected(self):
        pools = pools_of(2)
        pools[0].blocks.clear()
        with pytest.raises(ValueError):
            check_pools(pools)


class HeadPicker(WindowedAssembler):
    """Always picks index 0 per lane — degenerates to the PGM-latency sort."""

    name = "head"

    def choose(self, windows):
        return tuple(0 for _ in windows)


class RecordingPicker(WindowedAssembler):
    """Records window widths to verify the disjoint-window walk."""

    name = "recording"

    def __init__(self, window):
        super().__init__(window)
        self.seen_widths = []

    def choose(self, windows):
        self.seen_widths.append(tuple(len(w) for w in windows))
        return tuple(0 for _ in windows)


class TestWindowedAssembler:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            HeadPicker(0)

    def test_consumes_everything_once(self):
        pools = pools_of(7)
        superblocks = HeadPicker(3).assemble(pools)
        assert len(superblocks) == 7
        seen = [key for sb in superblocks for key in sb.member_keys()]
        assert len(seen) == len(set(seen))

    def test_head_picker_equals_sorted_zip(self):
        pools = pools_of(6)
        superblocks = HeadPicker(3).assemble(pools)
        for index, sb in enumerate(superblocks):
            for member in sb.members:
                # values were constructed ascending in block index
                assert member.block == index

    def test_window_walk_is_disjoint(self):
        picker = RecordingPicker(4)
        picker.assemble(pools_of(10))
        # batches: 4, 4, 2 -> widths shrink within each batch then reset
        assert picker.seen_widths == [
            (4, 4, 4), (3, 3, 3), (2, 2, 2), (1, 1, 1),
            (4, 4, 4), (3, 3, 3), (2, 2, 2), (1, 1, 1),
            (2, 2, 2), (1, 1, 1),
        ]

    def test_bad_choose_return(self):
        class Bad(WindowedAssembler):
            name = "bad"

            def choose(self, windows):
                return (0,)

        with pytest.raises(ValueError):
            Bad(2).assemble(pools_of(4))

    def test_out_of_range_pick(self):
        class OutOfRange(WindowedAssembler):
            name = "oor"

            def choose(self, windows):
                return tuple(99 for _ in windows)

        with pytest.raises(IndexError):
            OutOfRange(2).assemble(pools_of(4))


class TestComboSearch:
    def test_pairwise_distances(self):
        a = np.array([[0, 0], [1, 1]])
        b = np.array([[0, 1], [1, 1], [0, 0]])
        d = pairwise_signature_distances(a, b)
        assert d.shape == (2, 3)
        assert d[0, 2] == 0 and d[1, 1] == 0 and d[0, 0] == 1

    def test_pairwise_shape_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_signature_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_min_total_distance_combo(self):
        # 2 lanes with known best pair
        d01 = np.array([[5.0, 1.0], [2.0, 9.0]])
        picks, best, combos = min_total_distance_combo({(0, 1): d01}, [2, 2])
        assert picks == (0, 1)
        assert best == 1.0
        assert combos == 4

    def test_three_lane_combo(self):
        rng = np.random.default_rng(0)
        sizes = [3, 4, 2]
        mats = {
            (0, 1): rng.random((3, 4)),
            (0, 2): rng.random((3, 2)),
            (1, 2): rng.random((4, 2)),
        }
        picks, best, combos = min_total_distance_combo(mats, sizes)
        assert combos == 24
        # brute-force cross-check
        expected = min(
            (mats[(0, 1)][i, j] + mats[(0, 2)][i, k] + mats[(1, 2)][j, k], (i, j, k))
            for i in range(3)
            for j in range(4)
            for k in range(2)
        )
        assert picks == expected[1]
        assert best == pytest.approx(expected[0])

    def test_bad_pair_key(self):
        with pytest.raises(ValueError):
            min_total_distance_combo({(1, 0): np.zeros((2, 2))}, [2, 2])
