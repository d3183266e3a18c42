"""Scalar-vs-vector differential tests: every batch kernel twin is exact.

The vector backend's contract (DESIGN.md §13) is *bit*-identity, not
approximate agreement: for every scalar hot-path function that has a batch
twin in :mod:`repro.kernels`, batch row ``i`` must equal the scalar result
for element ``i`` — same dtype-level values, same tie-breaks, same IEEE-754
rounding.  All comparisons here are exact
(``array_equal`` / ``==``), never ``allclose``.

Shapes are adversarial on purpose: empty batches, single elements,
all-identical inputs (every tie-break fires), and blocks aged to the
endurance limit (the largest PE-dependent terms the model produces).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.signatures import (
    SIGNATURE_BUILDERS,
    signature_distance,
)
from repro.characterization.datasets import BlockMeasurement
from repro.core.eigen import eigen_bitvectors, pack_eigen_bits
from repro.core.gathering import GatheringError, GatheringUnit, block_program_totals
from repro.ftl.mapping import MappingError, PageMapper, PhysicalSlot
from repro.kernels import (
    ArrayPageMapper,
    batch_erase_latencies,
    batch_lwl_rank,
    batch_pwl_rank,
    batch_str_median,
    batch_str_rank,
    block_latency_stack,
    ecc_read_batch,
    eigen_distance_matrix,
    rber_batch,
    sequential_fill_prefix,
    signature_distance_matrix,
    superwl_stats,
)
from repro.nand import SMALL_GEOMETRY, VariationModel, VariationParams
from repro.nand.geometry import PageType
from repro.nand.reliability import EccConfig, EccEngine, ReliabilityParams, rber
from repro.utils.bitvec import BitVector
from repro.workloads.synthetic import sequential_fill

SEEDS = (7, 99, 2024)


@pytest.fixture(scope="module")
def profile():
    return VariationModel(SMALL_GEOMETRY, VariationParams(), seed=99).chip_profile(0)


def _measurements(profile, blocks, pe=0):
    return [
        BlockMeasurement(
            chip_id=0,
            plane=0,
            block=block,
            pe_cycles=pe,
            wl_latencies_us=profile.block_program_latencies(0, block, pe),
            erase_latency_us=profile.erase_latency(0, block, pe),
        )
        for block in blocks
    ]


def _stack(measurements):
    return np.stack([m.wl_latencies_us for m in measurements])


# -- signature kernels -------------------------------------------------------


BATCH_BY_NAME = {
    "lwl_rank": batch_lwl_rank,
    "pwl_rank": batch_pwl_rank,
    "str_rank": batch_str_rank,
    "str_median": batch_str_median,
}


@pytest.mark.parametrize("name", sorted(SIGNATURE_BUILDERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_signature_batch_rows_equal_scalar(name, seed, profile):
    rng = np.random.default_rng(seed)
    blocks = sorted(rng.choice(SMALL_GEOMETRY.blocks_per_plane, 6, replace=False))
    measurements = _measurements(profile, [int(b) for b in blocks])
    batch = BATCH_BY_NAME[name](_stack(measurements))
    for row, measurement in zip(batch, measurements):
        scalar = SIGNATURE_BUILDERS[name](measurement)
        assert row.dtype == scalar.dtype
        assert np.array_equal(row, scalar)


@pytest.mark.parametrize("name", sorted(BATCH_BY_NAME))
def test_signature_batch_empty_and_single(name, profile):
    layers = SMALL_GEOMETRY.layers_per_block
    strings = SMALL_GEOMETRY.strings_per_layer
    empty = BATCH_BY_NAME[name](np.zeros((0, layers, strings)))
    assert empty.shape == (0, layers * strings)
    single = BATCH_BY_NAME[name](_stack(_measurements(profile, [3])))
    scalar = SIGNATURE_BUILDERS[name](_measurements(profile, [3])[0])
    assert np.array_equal(single[0], scalar)


@pytest.mark.parametrize("name", sorted(BATCH_BY_NAME))
def test_signature_batch_all_identical_latencies_tie_break(name):
    """A constant matrix makes every comparison a tie: first-come must win."""
    layers, strings = 4, 4
    flat = np.full((layers, strings), 1500.0)
    measurement = BlockMeasurement(
        chip_id=0, plane=0, block=0, pe_cycles=0,
        wl_latencies_us=flat, erase_latency_us=1.0,
    )
    batch = BATCH_BY_NAME[name](flat[None, :, :])
    assert np.array_equal(batch[0], SIGNATURE_BUILDERS[name](measurement))


@pytest.mark.parametrize("seed", SEEDS)
def test_signature_distance_matrix_matches_pairwise_scalar(seed, profile):
    rng = np.random.default_rng(seed)
    blocks = [int(b) for b in rng.choice(SMALL_GEOMETRY.blocks_per_plane, 5, replace=False)]
    measurements = _measurements(profile, blocks)
    signatures = batch_str_median(_stack(measurements))
    matrix = signature_distance_matrix(signatures)
    assert np.array_equal(matrix, matrix.T)
    for i in range(len(blocks)):
        for j in range(len(blocks)):
            assert matrix[i, j] == signature_distance(signatures[i], signatures[j])


def test_eigen_pack_roundtrip_and_distances(profile):
    measurements = _measurements(profile, [0, 1, 2])
    stack = _stack(measurements)
    packed = pack_eigen_bits(stack)
    lwls = SMALL_GEOMETRY.lwls_per_block
    vectors = eigen_bitvectors(packed, lwls)
    bits = batch_str_median(stack)
    for vector, row in zip(vectors, bits):
        assert [vector[i] for i in range(lwls)] == [int(b) for b in row]
    distances = eigen_distance_matrix(packed)
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            assert distances[i, j] == BitVector.hamming_distance(a, b)


# -- variation model ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_block_latency_stack_rows_are_the_scalar_matrices(seed, profile):
    rng = np.random.default_rng(seed)
    blocks = [int(b) for b in rng.choice(SMALL_GEOMETRY.blocks_per_plane, 4, replace=False)]
    pes = [int(p) for p in rng.integers(0, 3000, len(blocks))]
    stack = block_latency_stack(profile, 0, blocks, pes)
    for row, block, pe in zip(stack, blocks, pes):
        assert np.array_equal(row, profile.block_program_latencies(0, block, pe))


def test_block_latency_stack_empty_batch(profile):
    stack = block_latency_stack(profile, 0, [])
    assert stack.shape == (
        0, SMALL_GEOMETRY.layers_per_block, SMALL_GEOMETRY.strings_per_layer
    )
    assert batch_erase_latencies(profile, 0, []).shape == (0,)


def test_block_latency_stack_at_endurance_limit(profile):
    """Max-PE aging: the largest wear terms still match the scalar path."""
    blocks = [0, 5, 9]
    pes = [profile.endurance_limit(0, block) for block in blocks]
    stack = block_latency_stack(profile, 0, blocks, pes)
    erases = batch_erase_latencies(profile, 0, blocks, pes)
    for i, (block, pe) in enumerate(zip(blocks, pes)):
        assert np.array_equal(stack[i], profile.block_program_latencies(0, block, pe))
        assert erases[i] == profile.erase_latency(0, block, pe)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_erase_latencies_bitwise_equal(seed, profile):
    rng = np.random.default_rng(seed)
    blocks = [int(b) for b in rng.choice(SMALL_GEOMETRY.blocks_per_plane, 8, replace=False)]
    pes = [int(p) for p in rng.integers(0, 500, len(blocks))]
    batch = batch_erase_latencies(profile, 0, blocks, pes)
    for value, block, pe in zip(batch, blocks, pes):
        assert value == profile.erase_latency(0, block, pe)


def test_superwl_stats_matches_python_reductions(profile):
    table = np.stack(
        [
            profile.block_program_latencies(0, block).reshape(-1)
            for block in (0, 1, 2, 3)
        ]
    )
    stats = superwl_stats(table)
    members, lwls = table.shape
    for lwl in range(lwls):
        column = [table[m, lwl] for m in range(members)]
        assert stats.completion_us[lwl] == max(column)
        assert stats.extra_us[lwl] == max(column) - min(column)
        assert stats.slowest[lwl] == max(range(members), key=lambda m: column[m])
        assert stats.fastest[lwl] == min(range(members), key=lambda m: column[m])


def test_superwl_stats_single_member_and_ties():
    single = superwl_stats(np.array([[5.0, 7.0]]))
    assert np.array_equal(single.completion_us, [5.0, 7.0])
    assert np.array_equal(single.extra_us, [0.0, 0.0])
    tied = superwl_stats(np.full((3, 4), 2.0))
    assert np.array_equal(tied.slowest, np.zeros(4))
    assert np.array_equal(tied.fastest, np.zeros(4))
    with pytest.raises(ValueError):
        superwl_stats(np.zeros((0, 4)))


def test_block_program_totals_is_the_sequential_fold(profile):
    matrices = [profile.block_program_latencies(0, block) for block in (0, 1, 7)]
    table = np.stack([m.reshape(-1) for m in matrices])
    totals = block_program_totals(table)
    for total, matrix in zip(totals, matrices):
        running = 0.0
        for value in matrix.reshape(-1):
            running += float(value)
        assert total == running
    assert np.array_equal(
        block_program_totals(np.zeros((2, 0))), np.zeros(2)
    )


# -- reliability -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_rber_batch_equals_scalar(seed):
    params = ReliabilityParams()
    rng = np.random.default_rng(seed)
    n = 16
    pes = rng.integers(0, 6000, n)
    retention = rng.uniform(0.0, 2000.0, n)
    types = [PageType(int(v)) for v in rng.integers(0, 3, n)]
    layer_log = rng.normal(0.0, 0.2, n)
    block_log = rng.normal(0.0, 0.2, n)
    batch = rber_batch(params, pes, retention, types, layer_log, block_log)
    for i in range(n):
        assert batch[i] == rber(
            params, int(pes[i]), float(retention[i]), types[i],
            float(layer_log[i]), float(block_log[i]),
        )


def test_rber_batch_adversarial_shapes():
    params = ReliabilityParams()
    assert rber_batch(params, [], [], []).shape == (0,)
    single = rber_batch(params, [100], [10.0], [PageType.LSB])
    assert single.shape == (1,)
    assert single[0] == rber(params, 100, 10.0, PageType.LSB)
    with pytest.raises(ValueError):
        rber_batch(params, [-1], [0.0], [PageType.LSB])


@pytest.mark.parametrize("seed", SEEDS)
def test_ecc_read_batch_preserves_draw_order(seed):
    config = EccConfig()
    batch_engine = EccEngine(config, SMALL_GEOMETRY)
    scalar_engine = EccEngine(config, SMALL_GEOMETRY)
    rbers = np.random.default_rng(seed).uniform(1e-5, 5e-3, 32)
    result = ecc_read_batch(batch_engine, rbers, np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 1)
    for i, value in enumerate(rbers):
        correction = scalar_engine.read_page(float(value), rng)
        assert result.corrected_bits[i] == correction.corrected_bits
        assert result.retries[i] == correction.retries
        assert result.extra_latency_us[i] == correction.extra_latency_us
        assert result.uncorrectable[i] == correction.uncorrectable
    assert batch_engine.pages_read == scalar_engine.pages_read
    assert batch_engine.total_retries == scalar_engine.total_retries


# -- array-backed mapping ----------------------------------------------------


def _mirror_ops(seed, logical_pages=64, ops=400):
    """A randomized op tape both mappers replay move-for-move."""
    rng = np.random.default_rng(seed)
    slots_used = {}
    tape = []
    for _ in range(ops):
        kind = rng.choice(["map", "unmap", "lookup"])
        lpn = int(rng.integers(0, logical_pages))
        if kind == "map":
            sb = int(rng.integers(0, 6))
            slot = slots_used.get(sb, 0)
            slots_used[sb] = slot + 1
            tape.append(("map", lpn, sb, slot))
        else:
            tape.append((kind, lpn))
    return tape


@pytest.mark.parametrize("seed", SEEDS)
def test_array_mapper_mirrors_scalar_mapper(seed):
    scalar = PageMapper(64)
    vector = ArrayPageMapper(64)
    for op in _mirror_ops(seed):
        if op[0] == "map":
            _, lpn, sb, slot = op
            a = scalar.map_page(lpn, PhysicalSlot(sb, slot))
            b = vector.map_page(lpn, PhysicalSlot(sb, slot))
        elif op[0] == "unmap":
            a = scalar.unmap_page(op[1])
            b = vector.unmap_page(op[1])
        else:
            a = scalar.lookup(op[1])
            b = vector.lookup(op[1])
        assert a == b
    assert scalar.mapped_pages == vector.mapped_pages
    assert dict(scalar.iter_mapped()) == dict(vector.iter_mapped())
    for sb in range(6):
        assert scalar.valid_count(sb) == vector.valid_count(sb)
        slot_count = 400  # no superblock takes more slots than the tape's ops
        assert scalar.valid_slots(sb, slot_count) == vector.valid_slots(sb, slot_count)


def test_map_batch_equals_per_page_loop():
    loop = ArrayPageMapper(64)
    batch = ArrayPageMapper(64)
    lpns = [3, 9, 1, 17, 40]
    for i, lpn in enumerate(lpns):
        loop.map_page(lpn, PhysicalSlot(0, i))
    batch.map_batch(lpns, 0, 0)
    assert dict(loop.iter_mapped()) == dict(batch.iter_mapped())
    # rewrite: stale copies must be invalidated identically
    for i, lpn in enumerate(lpns):
        loop.map_page(lpn, PhysicalSlot(1, i))
    batch.map_batch(lpns, 1, 0)
    assert dict(loop.iter_mapped()) == dict(batch.iter_mapped())
    assert loop.valid_count(0) == batch.valid_count(0) == 0


def test_map_superwl_and_contig_agree_with_map_batch():
    reference = ArrayPageMapper(128, slots_per_superblock=64)
    fast = ArrayPageMapper(128, slots_per_superblock=64)
    contig = ArrayPageMapper(128, slots_per_superblock=64)
    run = list(range(16, 24))
    reference.map_batch(run, 0, 0)
    fast.map_superwl(run, 0, 0)
    contig.map_superwl_contig(16, 8, 0, 0)
    assert dict(reference.iter_mapped()) == dict(fast.iter_mapped())
    assert dict(reference.iter_mapped()) == dict(contig.iter_mapped())
    # overwrite below the high-water mark: the stale scan must still fire
    reference.map_batch(run, 1, 0)
    fast.map_superwl(run, 1, 0)
    contig.map_superwl_contig(16, 8, 1, 0)
    assert reference.valid_count(0) == fast.valid_count(0) == 0
    assert contig.valid_count(0) == 0
    assert dict(reference.iter_mapped()) == dict(contig.iter_mapped())
    assert reference.mapped_pages == fast.mapped_pages == contig.mapped_pages


def test_map_batch_adversarial_shapes():
    mapper = ArrayPageMapper(32)
    mapper.map_batch([], 0, 0)  # empty batch is a no-op
    assert mapper.mapped_pages == 0
    mapper.map_batch([5], 0, 0)  # single element
    assert mapper.lookup(5) == PhysicalSlot(0, 0)
    with pytest.raises(MappingError):
        mapper.map_batch([99], 0, 4)  # out of range
    with pytest.raises(MappingError):
        mapper.map_batch([7], 0, 0)  # slot 0 already holds lpn 5
    with pytest.raises(MappingError):
        mapper.drop_superblock(0)  # still holds a valid page


# -- gathering unit bulk completion ------------------------------------------


def test_complete_block_rejects_unknown_and_partial_blocks(profile):
    unit = GatheringUnit(SMALL_GEOMETRY)
    matrix = profile.block_program_latencies(0, 0)
    record = unit.gather_measurement(0, 0, 0, matrix)
    with pytest.raises(GatheringError):
        unit.complete_block(record)  # not open
    unit.open_block(0, 0, 1)
    unit.report(0, 0, 1, 0, float(matrix[0, 0]))
    stale = unit.completed[-1]
    with pytest.raises(GatheringError):
        unit.complete_block(stale)  # word-line reports already flowed


# -- workload prefix ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_fill_prefix_is_byte_identical_to_truncation(seed):
    logical_pages = 4096
    full = sequential_fill(logical_pages, seed=seed)
    for count in (0, 1, 37, len(full)):
        prefix = sequential_fill_prefix(logical_pages, count, seed=seed)
        assert prefix == full[:count]


def test_sequential_fill_prefix_overlong_count_matches_full():
    full = sequential_fill(512, seed=5)
    assert sequential_fill_prefix(512, 10_000, seed=5) == full
