"""Assembly method tests: the eight directions on measured pools."""

import numpy as np
import pytest

from repro.assembly import (
    ErsLatencyAssembler,
    LwlRankAssembler,
    OptimalAssembler,
    PgmLatencyAssembler,
    PwlRankAssembler,
    RandomAssembler,
    SequentialAssembler,
    StrMedianAssembler,
    StrRankAssembler,
    evaluate_assembler,
)
from repro.assembly.base import LanePool
from repro.characterization.datasets import BlockMeasurement
from repro.exp.methods import make_assembler, method_names


def _consumes_each_block_once(assembler, pools):
    superblocks = assembler.assemble(pools)
    keys = [key for sb in superblocks for key in sb.member_keys()]
    assert len(keys) == len(set(keys))
    assert len(superblocks) == min(len(p) for p in pools)
    return superblocks


ALL_METHODS = [
    RandomAssembler(seed=0),
    SequentialAssembler(),
    ErsLatencyAssembler(),
    PgmLatencyAssembler(),
    OptimalAssembler(4),
    LwlRankAssembler(4),
    PwlRankAssembler(4),
    StrRankAssembler(4),
    StrMedianAssembler(4),
]


class TestAllMethods:
    @pytest.mark.parametrize("assembler", ALL_METHODS, ids=lambda a: a.name)
    def test_valid_partition(self, assembler, small_pools):
        _consumes_each_block_once(assembler, small_pools)

    @pytest.mark.parametrize("assembler", ALL_METHODS, ids=lambda a: a.name)
    def test_lane_structure(self, assembler, small_pools):
        superblocks = assembler.assemble(small_pools)
        lanes = tuple(pool.lane for pool in small_pools)
        for sb in superblocks:
            assert sb.lanes == lanes
            for lane, member in zip(sb.lanes, sb.members):
                assert member.chip_id == lane


class TestRandom:
    def test_seed_reproducible(self, small_pools):
        a = RandomAssembler(seed=3).assemble(small_pools)
        b = RandomAssembler(seed=3).assemble(small_pools)
        assert [sb.member_keys() for sb in a] == [sb.member_keys() for sb in b]

    def test_seed_sensitivity(self, small_pools):
        a = RandomAssembler(seed=3).assemble(small_pools)
        b = RandomAssembler(seed=4).assemble(small_pools)
        assert [sb.member_keys() for sb in a] != [sb.member_keys() for sb in b]


class TestSequential:
    def test_same_offsets_grouped(self, small_pools):
        superblocks = SequentialAssembler().assemble(small_pools)
        for sb in superblocks:
            blocks = {m.block for m in sb.members}
            planes = {m.plane for m in sb.members}
            assert len(blocks) == 1 and len(planes) == 1


class TestLatencySorts:
    def test_ers_sort_monotone(self, small_pools):
        superblocks = ErsLatencyAssembler().assemble(small_pools)
        per_lane = list(zip(*[sb.members for sb in superblocks]))
        for lane_members in per_lane:
            values = [m.erase_latency_us for m in lane_members]
            assert values == sorted(values)

    def test_pgm_sort_monotone(self, small_pools):
        superblocks = PgmLatencyAssembler().assemble(small_pools)
        per_lane = list(zip(*[sb.members for sb in superblocks]))
        for lane_members in per_lane:
            values = [m.program_total_us for m in lane_members]
            assert values == sorted(values)


class TestOptimal:
    def test_window_one_equals_pgm_sort(self, small_pools):
        opt = OptimalAssembler(1)
        base = PgmLatencyAssembler()
        assert [sb.member_keys() for sb in opt.assemble(small_pools)] == [
            sb.member_keys() for sb in base.assemble(small_pools)
        ]

    def test_combination_counter(self, small_pools):
        opt = OptimalAssembler(4, refine_passes=0)
        opt.assemble(small_pools)
        # per batch of 4: 4^4 + 3^4 + 2^4 + 1 = 353 combos; 24 blocks = 6 batches
        assert opt.combinations_checked == 6 * (256 + 81 + 16 + 1)

    def test_refinement_never_hurts(self, small_pools):
        raw = evaluate_assembler(OptimalAssembler(4, refine_passes=0), small_pools)
        refined = evaluate_assembler(OptimalAssembler(4, refine_passes=4), small_pools)
        assert refined.mean_extra_program_us <= raw.mean_extra_program_us + 1e-9

    def test_rejects_bad_refine(self):
        with pytest.raises(ValueError):
            OptimalAssembler(4, refine_passes=-1)

    def test_beats_random_clearly(self, small_pools):
        random_result = evaluate_assembler(RandomAssembler(seed=1), small_pools)
        optimal_result = evaluate_assembler(OptimalAssembler(4), small_pools)
        assert (
            optimal_result.mean_extra_program_us < random_result.mean_extra_program_us
        )


class TestRankMethods:
    def test_pair_check_counter(self, small_pools):
        asm = StrMedianAssembler(4)
        asm.assemble(small_pools)
        assert asm.pair_checks > 0
        assert asm.combinations_checked > 0

    def test_perfect_similarity_grouped(self):
        # Construct pools where lanes share identical string patterns for
        # matching block ids: distance-0 partners exist and must be chosen.
        rng = np.random.default_rng(7)
        patterns = [rng.normal(0, 5, size=(4, 4)) for _ in range(4)]
        pools = []
        for lane in range(3):
            blocks = []
            order = rng.permutation(4)
            for position, pattern_id in enumerate(order):
                matrix = 100.0 + patterns[pattern_id] + position * 0.001
                matrix.setflags(write=False)
                blocks.append(
                    BlockMeasurement(lane, 0, int(pattern_id), 0, matrix, 100.0)
                )
            pools.append(LanePool(lane=lane, blocks=blocks))
        superblocks = StrRankAssembler(4).assemble(pools)
        for sb in superblocks:
            pattern_ids = {m.block for m in sb.members}
            assert len(pattern_ids) == 1  # same pattern matched across lanes


class TestRegistry:
    def test_all_methods_constructible(self, small_pools):
        for name in method_names():
            superblocks = make_assembler(name).assemble(small_pools)
            assert superblocks, name

    def test_random_uses_the_baseline_seed(self, small_pools):
        # every method is compared against RANDOM seeded 1, the baseline
        def keys(assembler):
            return [sb.member_keys() for sb in assembler.assemble(small_pools)]

        assert keys(make_assembler("RANDOM")) == keys(RandomAssembler(seed=1))
        assert keys(make_assembler("RANDOM", seed=5)) == keys(RandomAssembler(seed=5))

    @pytest.mark.parametrize("window", [2, 6, 8])
    def test_any_window_size_parses(self, window):
        assembler = make_assembler(f"STR-RANK({window})")
        assert isinstance(assembler, StrRankAssembler)
        assert assembler.window == window

    @pytest.mark.parametrize("name", ["BOGUS", "STR-RANK", "STR-RANK(x)", "RANDOM(4)"])
    def test_unknown_method_rejected(self, name):
        with pytest.raises(ValueError, match="unknown method"):
            make_assembler(name)
