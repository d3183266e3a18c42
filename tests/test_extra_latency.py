"""Extra-latency definition tests (Section III-A semantics)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.characterization.datasets import BlockMeasurement
from repro.characterization.extra_latency import (
    extra_erase_latency,
    extra_program_latency,
)


def measurement(matrix, ers=100.0, chip=0):
    array = np.asarray(matrix, dtype=float)
    array.setflags(write=False)
    return BlockMeasurement(chip, 0, 0, 0, array, ers)


class TestDefinitions:
    def test_known_values(self):
        a = measurement([[10.0, 20.0]], ers=100.0)
        b = measurement([[12.0, 18.0]], ers=104.0, chip=1)
        # per-WL gaps: |10-12| = 2, |20-18| = 2 -> total 4
        assert extra_program_latency([a, b]) == pytest.approx(4.0)
        assert extra_erase_latency([a, b]) == pytest.approx(4.0)

    def test_identical_members_zero_extra(self):
        a = measurement([[5.0, 6.0], [7.0, 8.0]])
        b = measurement([[5.0, 6.0], [7.0, 8.0]], chip=1)
        assert extra_program_latency([a, b]) == 0.0
        assert extra_erase_latency([a, b]) == 0.0

    def test_requires_two_members(self):
        a = measurement([[1.0]])
        with pytest.raises(ValueError):
            extra_program_latency([a])
        with pytest.raises(ValueError):
            extra_erase_latency([a])

    def test_mismatched_shapes(self):
        a = measurement([[1.0, 2.0]])
        b = measurement([[1.0, 2.0, 3.0]], chip=1)
        with pytest.raises(ValueError):
            extra_program_latency([a, b])

    def test_empty_superblock_rejected(self):
        with pytest.raises(ValueError):
            extra_program_latency([])
        with pytest.raises(ValueError):
            extra_erase_latency([])

    def test_erase_extra_is_the_member_spread(self):
        # the slowest erase bounds the MP erase: only max - min counts,
        # however many members sit in between
        members = [
            measurement([[1.0]], ers=ers, chip=i)
            for i, ers in enumerate((103.0, 100.0, 109.0, 101.5))
        ]
        assert extra_erase_latency(members) == pytest.approx(9.0)


lat_matrices = st.lists(
    st.lists(st.floats(1, 1000, allow_nan=False), min_size=4, max_size=4),
    min_size=2,
    max_size=2,
)


class TestProperties:
    @given(st.lists(lat_matrices, min_size=2, max_size=5))
    def test_extra_nonnegative_and_bounded(self, matrices):
        members = [measurement(m, chip=i) for i, m in enumerate(matrices)]
        extra = extra_program_latency(members)
        assert extra >= 0
        # extra <= sum over WLs of (max over all values - min over all values)
        stacked = np.array(matrices, dtype=float).reshape(len(matrices), -1)
        bound = (stacked.max() - stacked.min()) * stacked.shape[1]
        assert extra <= bound + 1e-9

    @given(st.lists(lat_matrices, min_size=2, max_size=4))
    def test_adding_member_never_reduces_extra(self, matrices):
        members = [measurement(m, chip=i) for i, m in enumerate(matrices)]
        smaller = extra_program_latency(members[:2])
        bigger = extra_program_latency(members)
        assert bigger >= smaller - 1e-9

    @given(lat_matrices, lat_matrices)
    def test_extra_invariant_to_common_shift(self, first, second):
        members = [measurement(first, chip=0), measurement(second, chip=1)]
        shifted = [
            measurement((np.asarray(first) + 17.0).tolist(), chip=0),
            measurement((np.asarray(second) + 17.0).tolist(), chip=1),
        ]
        assert extra_program_latency(members) == pytest.approx(
            extra_program_latency(shifted), abs=1e-6
        )

    @given(st.lists(lat_matrices, min_size=2, max_size=4))
    def test_extra_equals_per_wordline_gap_sum(self, matrices):
        members = [measurement(m, chip=i) for i, m in enumerate(matrices)]
        flat = [[v for row in m for v in row] for m in matrices]
        gaps = [
            max(column) - min(column) for column in zip(*flat)
        ]
        assert extra_program_latency(members) == pytest.approx(sum(gaps), abs=1e-6)

    @given(st.lists(lat_matrices, min_size=2, max_size=4))
    def test_extra_at_least_member_total_spread(self, matrices):
        # every super word-line waits for its slowest member, so the summed
        # gap can never undercut the spread of the members' block totals
        members = [measurement(m, chip=i) for i, m in enumerate(matrices)]
        totals = [member.program_total_us for member in members]
        assert extra_program_latency(members) >= max(totals) - min(totals) - 1e-6

    @given(
        st.lists(lat_matrices, min_size=2, max_size=4),
        st.lists(st.floats(1, 1000, allow_nan=False), min_size=4, max_size=4),
    )
    def test_extra_invariant_to_member_order(self, matrices, erase_latencies):
        members = [
            measurement(m, ers=ers, chip=i)
            for i, (m, ers) in enumerate(zip(matrices, erase_latencies))
        ]
        reversed_members = members[::-1]
        assert extra_program_latency(reversed_members) == pytest.approx(
            extra_program_latency(members), abs=1e-9
        )
        assert extra_erase_latency(reversed_members) == extra_erase_latency(members)
