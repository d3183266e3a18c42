"""Signature construction tests (directions 5-8)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.assembly.signatures import (
    _stable_ranks,
    lwl_rank_signature,
    lwl_ranks,
    pwl_rank_signature,
    pwl_ranks,
    signature_distance,
    str_median_signature,
    str_rank_signature,
    str_ranks,
)
from repro.characterization.datasets import BlockMeasurement


def measurement(matrix):
    array = np.asarray(matrix, dtype=float)
    array.setflags(write=False)
    return BlockMeasurement(0, 0, 0, 0, array, 100.0)


class TestLwlRank:
    def test_known_ranks(self):
        m = measurement([[30.0, 10.0], [20.0, 40.0]])
        # flattened order: 30,10,20,40 -> ranks 2,0,1,3
        assert list(lwl_rank_signature(m)) == [2, 0, 1, 3]

    def test_ties_stable(self):
        m = measurement([[10.0, 10.0], [10.0, 10.0]])
        assert list(lwl_rank_signature(m)) == [0, 1, 2, 3]


class TestPwlRank:
    def test_per_string_ranks(self):
        m = measurement([[30.0, 10.0], [20.0, 40.0]])
        # string 0 column: 30,20 -> ranks 1,0 ; string 1: 10,40 -> 0,1
        sig = pwl_rank_signature(m).reshape(2, 2)
        assert list(sig[:, 0]) == [1, 0]
        assert list(sig[:, 1]) == [0, 1]

    def test_rank_range(self):
        rng = np.random.default_rng(1)
        m = measurement(rng.random((6, 4)))
        sig = pwl_rank_signature(m)
        assert sig.max() == 5  # ranks 0..layers-1 per string


class TestStrRank:
    def test_per_layer_ranks(self):
        m = measurement([[30.0, 10.0, 20.0, 40.0]])
        assert list(str_rank_signature(m)) == [2, 0, 1, 3]

    def test_rank_range(self):
        rng = np.random.default_rng(2)
        m = measurement(rng.random((6, 4)))
        assert str_rank_signature(m).max() == 3


class TestStrMedian:
    def test_fast_half_zero(self):
        m = measurement([[30.0, 10.0, 20.0, 40.0]])
        # two fastest (10, 20) -> bits 0; (30, 40) -> bits 1
        assert list(str_median_signature(m)) == [1, 0, 0, 1]

    def test_tie_break_first_come(self):
        m = measurement([[10.0, 10.0, 10.0, 10.0]])
        assert list(str_median_signature(m)) == [0, 0, 1, 1]

    def test_exactly_half_fast(self):
        rng = np.random.default_rng(3)
        m = measurement(rng.random((8, 4)))
        sig = str_median_signature(m).reshape(8, 4)
        assert (sig.sum(axis=1) == 2).all()


class TestDistance:
    def test_zero_for_identical(self):
        m = measurement(np.random.default_rng(4).random((4, 4)))
        assert signature_distance(str_rank_signature(m), str_rank_signature(m)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            signature_distance(np.zeros(3), np.zeros(4))

    @given(st.integers(0, 2**32 - 1))
    def test_distance_counts_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=16).astype(np.uint16)
        b = a.copy()
        flips = rng.integers(0, 8)
        positions = rng.choice(16, size=flips, replace=False)
        b[positions] = (b[positions] + 1) % 4
        assert signature_distance(a, b) == len(positions)


def _plain_ranks(values):
    """Stable ranks by the definition: sort positions by (value, position)."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for rank, position in enumerate(order):
        ranks[position] = rank
    return ranks


KERNELS = [
    (lwl_ranks, lwl_rank_signature),
    (pwl_ranks, pwl_rank_signature),
    (str_ranks, str_rank_signature),
]
KERNEL_SEEDS = range(30)


class TestRankKernelsOverStacks:
    """The ``(..., layers, strings)`` kernels against per-block calls."""

    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        lead = tuple(int(n) for n in rng.integers(0, 4, size=int(rng.integers(0, 3))))
        shape = lead + (int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        values = rng.uniform(1000.0, 1100.0, shape)
        if seed % 2:
            values = np.round(values, -1)  # coarse grid: many exact ties
        return values

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("kernel, builder", KERNELS, ids=lambda f: f.__name__)
    def test_stack_equals_per_block_calls(self, kernel, builder, seed):
        values = self._stack(seed)
        ranks = kernel(values)
        assert ranks.shape == values.shape and ranks.dtype == np.uint16, f"seed={seed}"
        for index in np.ndindex(*values.shape[:-2]):
            block = builder(measurement(values[index]))
            assert np.array_equal(ranks[index].reshape(-1), block), (
                f"{kernel.__name__}: block {index} differs (seed={seed})"
            )

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_ranks_match_the_definition(self, seed):
        values = self._stack(seed)
        for block in values.reshape(-1, *values.shape[-2:]):
            layers, strings = block.shape
            assert list(lwl_ranks(block).reshape(-1)) == _plain_ranks(
                list(block.reshape(-1))
            ), f"lwl seed={seed}"
            for s in range(strings):
                assert list(pwl_ranks(block)[:, s]) == _plain_ranks(
                    list(block[:, s])
                ), f"pwl seed={seed}"
            for layer in range(layers):
                assert list(str_ranks(block)[layer]) == _plain_ranks(
                    list(block[layer])
                ), f"str seed={seed}"


class TestStrRanksCountPairs:
    """``str_ranks`` counts string pairs; the stable argsort is its reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_stacks_match_the_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        lead = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(0, 3))))
        shape = lead + (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        if seed % 2:
            values = rng.integers(0, 3, size=shape).astype(float)  # dense ties
        else:
            values = rng.uniform(1000.0, 1100.0, shape)
        ranks = str_ranks(values)
        assert ranks.shape == values.shape and ranks.dtype == np.uint16
        assert np.array_equal(ranks, _stable_ranks(values, axis=-1)), f"seed={seed}"

    @pytest.mark.parametrize("strings", range(1, 9))
    def test_forced_ties(self, strings):
        rng = np.random.default_rng(strings)
        twins = np.repeat(rng.permutation(strings), 2)[:strings]  # equal pairs
        layers = np.stack(
            [
                np.full(strings, 1700.0),  # an all-equal layer
                rng.permutation(twins).astype(float),
                rng.permutation(twins)[::-1].astype(float),
            ]
        )
        stack = np.stack([layers, layers[::-1]])
        assert np.array_equal(str_ranks(stack), _stable_ranks(stack, axis=-1))
        assert list(str_ranks(layers[0])) == list(range(strings))
        single = layers[1:2]  # a single layer
        assert np.array_equal(str_ranks(single), _stable_ranks(single, axis=-1))
