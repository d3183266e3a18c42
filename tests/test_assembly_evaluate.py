"""Evaluation harness tests."""

import pytest

from repro.assembly import RandomAssembler, StrMedianAssembler, evaluate_assembler
from repro.assembly.evaluate import MethodResult


class TestMethodResult:
    def test_aggregates(self):
        result = MethodResult(name="x", extra_program_us=[10.0, 20.0], extra_erase_us=[1.0, 3.0])
        assert result.superblock_count == 2
        assert result.mean_extra_program_us == pytest.approx(15.0)
        assert result.mean_extra_erase_us == pytest.approx(2.0)

    def test_improvements(self):
        baseline = MethodResult("base", [100.0], [10.0])
        better = MethodResult("better", [80.0], [5.0])
        assert better.program_improvement_vs(baseline) == pytest.approx(20.0)
        assert better.erase_improvement_vs(baseline) == pytest.approx(50.0)
        assert better.program_reduction_vs(baseline) == pytest.approx(20.0)


class TestEvaluate:
    def test_collects_per_superblock(self, small_pools):
        result = evaluate_assembler(RandomAssembler(seed=0), small_pools)
        assert result.superblock_count == min(len(p) for p in small_pools)
        assert all(v >= 0 for v in result.extra_program_us)
        assert all(v >= 0 for v in result.extra_erase_us)

    def test_overhead_counters_copied(self, small_pools):
        result = evaluate_assembler(StrMedianAssembler(4), small_pools)
        assert result.pair_checks > 0

    def test_same_pools_reused(self, small_pools):
        # evaluation must not consume/mutate the pools
        before = [len(p) for p in small_pools]
        evaluate_assembler(RandomAssembler(seed=0), small_pools)
        evaluate_assembler(StrMedianAssembler(4), small_pools)
        assert [len(p) for p in small_pools] == before
