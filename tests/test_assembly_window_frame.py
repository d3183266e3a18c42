"""Differential tests for the scored greedy frame of the window search.

OPTIMAL and the four rank/STR-median directions score each window once and
run the greedy rounds of a chunk of windows in lockstep
(``ScoredWindowAssembler.assemble_windows``).  Their references here:

* the base ``WindowedAssembler.assemble_window``, which rescores the shrunk
  window with ``choose`` once per round, run on the same instance;
* plain brute-force pickers written out in this file (every combination in
  C order, per-block signatures and ``signature_distance``);
* the per-swap 2-opt loop, kept here, for ``OptimalAssembler.refine``.

Pools are seeded and random.  Their latencies sit on a coarse grid so
scores tie and the first-minimum rule decides.  They cover 2-5 lanes,
windows 1-8, uneven pools and an uneven last window.  Superblocks, extra
latencies and both counters must match exactly, and every message carries
its seed.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np
import pytest

import repro.assembly.base as assembly_base
from repro.assembly import (
    LanePool,
    LwlRankAssembler,
    OptimalAssembler,
    PwlRankAssembler,
    StrMedianAssembler,
    StrRankAssembler,
    Superblock,
    WindowedAssembler,
)
from repro.assembly.signatures import SIGNATURE_BUILDERS, signature_distance
from repro.characterization.datasets import BlockMeasurement
from repro.exp import SimConfig
from repro.exp.build import build_stack
from repro.exp.methods import make_assembler

FRAME_SEEDS = range(40)

RANK_DIRECTIONS = {
    "lwl_rank": LwlRankAssembler,
    "pwl_rank": PwlRankAssembler,
    "str_rank": StrRankAssembler,
    "str_median": StrMedianAssembler,
}


def _random_pools(seed: int, max_lanes: int = 5) -> Tuple[List[LanePool], int]:
    """Seeded pools on a coarse latency grid, plus a window size 1-8."""
    rng = np.random.default_rng(seed)
    lanes = int(rng.integers(2, max_lanes + 1))
    window = int(rng.integers(1, 9))
    if lanes == 5:
        window = min(window, 5)  # keeps the per-round oracle quick
    layers = int(rng.integers(1, 5))
    strings = int(rng.integers(2, 5))
    count = int(rng.integers(1, 3 * window + 2))
    pools = []
    for lane in range(lanes):
        blocks = []
        for block in range(count + int(rng.integers(0, 3))):
            matrix = 1000.0 + 10.0 * rng.integers(0, 3, size=(layers, strings))
            matrix.setflags(write=False)
            erase = 3000.0 + 5.0 * float(rng.integers(0, 4))
            blocks.append(BlockMeasurement(lane, 0, block, 0, matrix, erase))
        pools.append(LanePool(lane=lane, blocks=blocks))
    return pools, window


def _windows(assembler: WindowedAssembler, pools: Sequence[LanePool]):
    """The aligned windows ``assemble`` walks, in order."""
    count = min(len(pool) for pool in pools)
    ordered = [pool.sorted_by(lambda m: m.program_total_us) for pool in pools]
    for position in range(0, count, assembler.window):
        width = min(assembler.window, count - position)
        yield [blocks[position : position + width] for blocks in ordered]


def _outcome(superblocks: Sequence[Superblock]):
    return (
        [sb.member_keys() for sb in superblocks],
        [sb.extra_program_latency_us for sb in superblocks],
        [sb.extra_erase_latency_us for sb in superblocks],
    )


def _assemble_per_round(assembler: WindowedAssembler, pools, window_method):
    """``assemble`` with ``window_method`` as each window's assembly."""
    assembler.combinations_checked = 0
    assembler.pair_checks = 0
    lanes = tuple(pool.lane for pool in pools)
    superblocks: List[Superblock] = []
    for windows in _windows(assembler, pools):
        superblocks.extend(window_method(assembler, windows, lanes))
    return superblocks, assembler.combinations_checked, assembler.pair_checks


def _directions(window: int):
    """The five scored directions; OPTIMAL without 2-opt, so it is greedy only."""
    yield OptimalAssembler(window, refine_passes=0)
    for cls in RANK_DIRECTIONS.values():
        yield cls(window)


# -- the lockstep frame against the per-round choose loop ------------------------


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_frame_matches_per_round_choose(seed):
    """``assemble`` (a chunk of windows in lockstep) equals the per-window
    ``choose`` loop, superblocks and counters."""
    pools, window = _random_pools(seed)
    for assembler in _directions(window):
        got = assembler.assemble(pools)
        counters = (assembler.combinations_checked, assembler.pair_checks)
        reference = _assemble_per_round(
            assembler, pools, WindowedAssembler.assemble_window
        )
        assert _outcome(got) == _outcome(reference[0]), (
            f"{assembler.name}: superblocks differ (seed={seed})"
        )
        assert counters == reference[1:], (
            f"{assembler.name}: counters {counters} vs {reference[1:]} (seed={seed})"
        )


@pytest.mark.parametrize("seed", FRAME_SEEDS[:20])
def test_frame_is_independent_of_chunking(seed, monkeypatch):
    """A 1-byte bound makes every window a chunk of its own: same outcome."""
    pools, window = _random_pools(seed)
    for assembler in _directions(window):
        chunked = (_outcome(assembler.assemble(pools)), assembler.combinations_checked)
        monkeypatch.setattr(assembly_base, "CHUNK_BYTES", 1)
        single = (_outcome(assembler.assemble(pools)), assembler.combinations_checked)
        monkeypatch.undo()
        assert chunked == single, f"{assembler.name}: chunking changed the outcome (seed={seed})"


# -- the scores against brute force ---------------------------------------


def _extra(rows: Sequence[np.ndarray]) -> float:
    stack = np.stack(rows)
    return float((stack.max(axis=0) - stack.min(axis=0)).sum())


def _brute_force_optimal(windows) -> Tuple[int, ...]:
    best, best_picks = math.inf, None
    for picks in itertools.product(*(range(len(w)) for w in windows)):
        value = _extra([w[p].lwl_latencies() for w, p in zip(windows, picks)])
        if value < best:
            best, best_picks = value, picks
    return best_picks


def _brute_force_rank(builder):
    def choose(windows) -> Tuple[int, ...]:
        signatures = [[builder(m) for m in window] for window in windows]
        best, best_picks = math.inf, None
        for picks in itertools.product(*(range(len(w)) for w in windows)):
            value = sum(
                signature_distance(signatures[i][picks[i]], signatures[j][picks[j]])
                for i in range(len(windows))
                for j in range(i + 1, len(windows))
            )
            if value < best:
                best, best_picks = value, picks
        return best_picks

    return choose


def _greedy_with(choose, windows, lanes) -> List[Superblock]:
    remaining = [list(window) for window in windows]
    result = []
    for _ in range(len(windows[0])):
        picks = choose(remaining)
        members = tuple(r.pop(p) for r, p in zip(remaining, picks))
        result.append(Superblock(members=members, lanes=lanes))
    return result


@pytest.mark.parametrize("seed", FRAME_SEEDS[:20])
def test_greedy_picks_match_brute_force(seed):
    pools, window = _random_pools(seed, max_lanes=4)
    window = min(window, 4)
    lanes = tuple(pool.lane for pool in pools)
    pickers = [(OptimalAssembler(window, refine_passes=0), _brute_force_optimal)]
    pickers += [
        (cls(window), _brute_force_rank(SIGNATURE_BUILDERS[name]))
        for name, cls in RANK_DIRECTIONS.items()
    ]
    for assembler, choose in pickers:
        aligned = list(_windows(assembler, pools))
        got = assembler.assemble_windows(aligned, lanes)
        want = [sb for windows in aligned for sb in _greedy_with(choose, windows, lanes)]
        assert _outcome(got) == _outcome(want), (
            f"{assembler.name}: greedy picks differ from brute force (seed={seed})"
        )


@pytest.mark.parametrize("seed", FRAME_SEEDS[:20])
def test_rank_counters_follow_the_paper_accounting(seed):
    pools, window = _random_pools(seed)
    count = min(len(pool) for pool in pools)
    widths = [min(window, count - p) for p in range(0, count, window)]
    lanes = len(pools)
    combinations = sum(left**lanes for w in widths for left in range(1, w + 1))
    pairs = sum(
        left * left * lanes * (lanes - 1) // 2 for w in widths for left in range(1, w + 1)
    )
    for cls in RANK_DIRECTIONS.values():
        assembler = cls(window)
        assembler.assemble(pools)
        assert (assembler.combinations_checked, assembler.pair_checks) == (
            combinations,
            pairs,
        ), f"{assembler.name}: counters (seed={seed})"


# -- 2-opt: the batched lane passes against the per-swap loop ---------------


def _per_swap_refine(superblocks, lanes, passes) -> Tuple[List[Superblock], int]:
    """The 2-opt loop one candidate at a time: restack, re-reduce, compare."""
    count, lane_count = len(superblocks), len(lanes)
    members = [[sb.members[l] for sb in superblocks] for l in range(lane_count)]
    stacks = [[m.lwl_latencies() for m in members[l]] for l in range(lane_count)]
    extras = [_extra([stacks[l][s] for l in range(lane_count)]) for s in range(count)]
    checked = 0
    for _ in range(passes):
        improved = False
        for lane in range(lane_count):
            for a in range(count):
                for b in range(a + 1, count):
                    rows_a = [stacks[l][a] for l in range(lane_count)]
                    rows_b = [stacks[l][b] for l in range(lane_count)]
                    rows_a[lane], rows_b[lane] = stacks[lane][b], stacks[lane][a]
                    new_a, new_b = _extra(rows_a), _extra(rows_b)
                    checked += 2
                    if new_a + new_b + 1e-9 < extras[a] + extras[b]:
                        for column in (members[lane], stacks[lane]):
                            column[a], column[b] = column[b], column[a]
                        extras[a], extras[b] = new_a, new_b
                        improved = True
        if not improved:
            break
    refined = [
        Superblock(members=tuple(members[l][s] for l in range(lane_count)), lanes=lanes)
        for s in range(count)
    ]
    return refined, checked


@pytest.mark.parametrize("seed", FRAME_SEEDS)
@pytest.mark.parametrize("grid", ["ties", "near_ties", "floats"])
def test_batched_refine_matches_per_swap_loop(seed, grid):
    rng = np.random.default_rng(seed)
    lane_count = int(rng.integers(2, 6))
    count = int(rng.integers(1, 9))
    layers, strings = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    lanes = tuple(range(lane_count))
    superblocks = []
    for s in range(count):
        members = []
        for lane in lanes:
            matrix = rng.normal(1000.0, 40.0, size=(layers, strings))
            if grid != "floats":
                matrix = np.round(matrix, -1)
            if grid == "near_ties":
                # swaps that gain less than the 1e-9 margin must be refused
                matrix = matrix + 1e-10 * rng.integers(-3, 4, size=(layers, strings))
            matrix.setflags(write=False)
            members.append(BlockMeasurement(lane, 0, s, 0, matrix, 3000.0))
        superblocks.append(Superblock(members=tuple(members), lanes=lanes))
    passes = int(rng.integers(0, 5))
    assembler = OptimalAssembler(8, refine_passes=passes)
    got = assembler.refine(superblocks, lanes)
    want, checked = _per_swap_refine(superblocks, lanes, passes)
    assert _outcome(got) == _outcome(want), f"refined superblocks differ (seed={seed})"
    assert assembler.combinations_checked == checked, (
        f"swap checks {assembler.combinations_checked} vs {checked} (seed={seed})"
    )


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_optimal_assemble_matches_per_round_greedy_then_per_swap(seed):
    pools, window = _random_pools(seed)
    assembler = OptimalAssembler(window)
    got = assembler.assemble(pools)
    got_counts = assembler.combinations_checked

    oracle = OptimalAssembler(window)
    lanes = tuple(pool.lane for pool in pools)
    want: List[Superblock] = []
    swaps = 0
    for windows in _windows(oracle, pools):
        greedy = WindowedAssembler.assemble_window(oracle, windows, lanes)
        refined, checked = (
            _per_swap_refine(greedy, lanes, oracle.refine_passes)
            if len(greedy) >= 2
            else (greedy, 0)
        )
        want.extend(refined)
        swaps += checked
    assert _outcome(got) == _outcome(want), f"superblocks differ (seed={seed})"
    assert got_counts == oracle.combinations_checked + swaps, (
        f"combinations {got_counts} vs {oracle.combinations_checked + swaps} (seed={seed})"
    )


# -- one instance, many assemblies ----------------------------------------------

WINDOWED_METHODS = ("OPTIMAL(8)", "LWL-RANK(8)", "PWL-RANK(8)", "STR-RANK(8)", "STR-MED(4)")


def _testbed_pools(seed: int) -> List[LanePool]:
    return build_stack(SimConfig.testbed(seed=seed, chips=2, pool_blocks=24)).pools()


@pytest.mark.parametrize("name", WINDOWED_METHODS)
def test_reused_instance_equals_fresh_instance(name):
    """Nothing carries over between assemblies: no counts, no signatures.

    The first pools are freed before the second assembly, so their blocks'
    ids can come back for new blocks.
    """
    reused = make_assembler(name)
    reused.assemble(_testbed_pools(1))
    pools = _testbed_pools(2)
    again = reused.assemble(pools)
    fresh = make_assembler(name)
    want = fresh.assemble(pools)
    assert _outcome(again) == _outcome(want), f"{name}: superblocks differ on reuse"
    assert (reused.combinations_checked, reused.pair_checks) == (
        fresh.combinations_checked,
        fresh.pair_checks,
    ), f"{name}: counters carried over from the previous assembly"
