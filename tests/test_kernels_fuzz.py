"""Seeded fuzz/property tests for the batch kernels.

Each property runs over a pinned band of seeds (deterministic in CI), and
every assertion message carries the reproducing seed, so a failure line is
a one-seed repro recipe: feed the printed seed back into the generator and
the exact inputs come back.

Properties pinned here (the batch kernels must uphold what the scalar model
guarantees):

* signature distances are symmetric with a zero diagonal, and a block is
  never closer to another block than to itself;
* MP completion of a super word-line is exactly the max over the member
  latencies (and extra is max - min, never negative);
* wear moves latency monotonically — programs speed up with P/E cycles,
  erases slow down — in the batch path exactly as in the scalar one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eigen import pack_eigen_bits
from repro.kernels import (
    batch_erase_latencies,
    batch_lwl_rank,
    batch_str_median,
    block_latency_stack,
    eigen_distance_matrix,
    signature_distance_matrix,
    superwl_stats,
)
from repro.nand import SMALL_GEOMETRY, VariationModel, VariationParams

FUZZ_SEEDS = range(200, 230)


def _random_stack(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    layers = int(rng.integers(1, 12))
    strings = int(rng.integers(1, 6))
    # mix continuous values with deliberate ties
    stack = rng.uniform(1000.0, 4000.0, (k, layers, strings))
    if rng.random() < 0.5:
        stack = np.round(stack, -1)  # coarse grid: many exact ties
    return stack


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_signature_distances_symmetric_with_zero_diagonal(seed):
    stack = _random_stack(seed)
    for name, matrix in (
        ("rank", signature_distance_matrix(batch_lwl_rank(stack))),
        ("eigen", eigen_distance_matrix(pack_eigen_bits(stack))),
    ):
        assert np.array_equal(matrix, matrix.T), f"{name} asymmetric (seed={seed})"
        assert np.array_equal(
            np.diag(matrix), np.zeros(len(matrix), dtype=matrix.dtype)
        ), f"{name} self-distance nonzero (seed={seed})"
        assert (matrix >= 0).all(), f"{name} negative distance (seed={seed})"


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_self_similarity_is_maximal(seed):
    """No other block is strictly more similar to i than i itself."""
    stack = _random_stack(seed)
    matrix = signature_distance_matrix(batch_str_median(stack))
    for i in range(len(matrix)):
        assert matrix[i, i] == matrix[i].min(), (
            f"block {i} closer to another block than to itself (seed={seed})"
        )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mp_completion_is_the_member_max(seed):
    rng = np.random.default_rng(seed)
    members = int(rng.integers(1, 9))
    lwls = int(rng.integers(1, 40))
    table = rng.uniform(1000.0, 4000.0, (members, lwls))
    stats = superwl_stats(table)
    assert np.array_equal(
        stats.completion_us, table.max(axis=0)
    ), f"completion != member max (seed={seed})"
    assert (stats.extra_us >= 0).all(), f"negative extra latency (seed={seed})"
    for lwl in range(lwls):
        assert (
            stats.completion_us[lwl] == table[stats.slowest[lwl], lwl]
        ), f"slowest index wrong at lwl {lwl} (seed={seed})"
        assert (
            table[stats.fastest[lwl], lwl] == table[:, lwl].min()
        ), f"fastest index wrong at lwl {lwl} (seed={seed})"


@pytest.mark.parametrize("seed", range(300, 310))
def test_wear_monotonicity_matches_the_scalar_model(seed):
    """Programs never slow down with wear; erases never speed up."""
    profile = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=seed).chip_profile(0)
    rng = np.random.default_rng(seed)
    blocks = [
        int(b)
        for b in rng.choice(SMALL_GEOMETRY.blocks_per_plane, 4, replace=False)
    ]
    young, old = 0, 3000
    prog_young = block_latency_stack(profile, 0, blocks, young)
    prog_old = block_latency_stack(profile, 0, blocks, old)
    ers_young = batch_erase_latencies(profile, 0, blocks, young)
    ers_old = batch_erase_latencies(profile, 0, blocks, old)
    for i, block in enumerate(blocks):
        assert (prog_old[i] <= prog_young[i]).all(), (
            f"block {block} programs slower when worn (seed={seed})"
        )
        assert ers_old[i] >= ers_young[i], (
            f"block {block} erases faster when worn (seed={seed})"
        )
