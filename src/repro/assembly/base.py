"""Superblock assembly abstractions.

The characterization study (Section IV) treats assembly as an *offline*
problem: given, for each of N lanes (distinct chips), a pool of measured
blocks, partition the pools into superblocks of one block per lane so that
the summed extra latency is small.  :class:`Assembler` is the interface all
eight directions implement; :class:`WindowedAssembler` factors the shared
machinery of the window-search methods (OPTIMAL / LWL-RANK / PWL-RANK /
STR-RANK / STR-MED): sort every pool by block program latency first
(Figure 7, step 1), then pick one combination out of each aligned window.
:class:`ScoredWindowAssembler` is the greedy frame those five share: it
scores a window's combinations once and picks every superblock of the
window from that one score tensor.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.characterization.datasets import BlockMeasurement
from repro.characterization.extra_latency import (
    extra_erase_latency,
    extra_program_latency,
)


@dataclass(frozen=True)
class Superblock:
    """One assembled superblock: one measured block per lane."""

    members: Tuple[BlockMeasurement, ...]
    lanes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.lanes):
            raise ValueError("members and lanes must align")
        if len(set(self.lanes)) != len(self.lanes):
            raise ValueError("a superblock takes at most one block per lane")

    @property
    def extra_program_latency_us(self) -> float:
        return extra_program_latency(self.members)

    @property
    def extra_erase_latency_us(self) -> float:
        return extra_erase_latency(self.members)

    def member_keys(self) -> List[Tuple[int, int, int]]:
        return [m.key() for m in self.members]


@dataclass
class LanePool:
    """The free blocks one lane (chip) contributes to assembly."""

    lane: int
    blocks: List[BlockMeasurement] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.blocks)

    def sorted_by(
        self, key: Callable[[BlockMeasurement], Any]
    ) -> List[BlockMeasurement]:
        return sorted(self.blocks, key=key)


def check_pools(pools: Sequence[LanePool]) -> int:
    """Validate pools and return the number of superblocks they can form."""
    if len(pools) < 2:
        raise ValueError("assembly needs at least two lanes")
    lanes = [pool.lane for pool in pools]
    if len(set(lanes)) != len(lanes):
        raise ValueError(f"duplicate lane ids: {lanes}")
    sizes = [len(pool) for pool in pools]
    if min(sizes) == 0:
        raise ValueError("every lane pool must be non-empty")
    return min(sizes)


class Assembler(ABC):
    """A superblock organization policy."""

    #: short method name used in tables and the registry
    name: str = "abstract"

    @abstractmethod
    def assemble(self, pools: Sequence[LanePool]) -> List[Superblock]:
        """Partition the pools into superblocks (one block per lane each)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ZipAssembler(Assembler):
    """Assemble by ordering each pool independently and zipping positions.

    Subclasses provide the per-lane ordering (random shuffle, block number,
    erase latency, program latency).
    """

    @abstractmethod
    def order_pool(self, pool: LanePool) -> List[BlockMeasurement]:
        """The pool's blocks in pairing order."""

    def assemble(self, pools: Sequence[LanePool]) -> List[Superblock]:
        count = check_pools(pools)
        ordered = [self.order_pool(pool) for pool in pools]
        lanes = tuple(pool.lane for pool in pools)
        return [
            Superblock(
                members=tuple(ordered[lane_idx][i] for lane_idx in range(len(pools))),
                lanes=lanes,
            )
            for i in range(count)
        ]


class WindowedAssembler(Assembler):
    """Shared frame of the window-search directions.

    Pools are sorted ascending by block program latency and walked in
    *aligned windows* of ``window`` blocks per lane.  Within one window the
    assembler repeatedly asks the subclass to pick the best remaining
    combination (one index per lane), consumes those blocks, and moves to
    the next window once the current one is exhausted — so a window of W
    yields W superblocks before the frame advances.

    Keeping windows disjoint is what makes the *local* search well-behaved:
    a greedy picker can only defer an awkward block to the end of its own
    window, never indefinitely, so pools stay aligned across the whole run.

    Subclasses see only measured data (never the generative model).
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        #: number of candidate-combination evaluations performed (overhead metric)
        self.combinations_checked = 0
        #: number of pairwise distance computations performed (overhead metric)
        self.pair_checks = 0

    @abstractmethod
    def choose(self, windows: Sequence[Sequence[BlockMeasurement]]) -> Tuple[int, ...]:
        """Pick one index per lane from the current window candidates."""

    def assemble_window(
        self, windows: Sequence[List[BlockMeasurement]], lanes: Tuple[int, ...]
    ) -> List[Superblock]:
        """Assemble one aligned window completely (``len(windows[0])`` SBs).

        The default repeatedly applies :meth:`choose` to the shrinking
        window.  Subclasses may override it to score the window once
        (:class:`ScoredWindowAssembler`) or to refine the picks jointly
        (:class:`~repro.assembly.optimal.OptimalAssembler`); this loop stays
        the per-round reference they must reproduce.
        """
        remaining = [list(window) for window in windows]
        result: List[Superblock] = []
        for _ in range(len(windows[0])):
            picks = self.choose(remaining)
            if len(picks) != len(remaining):
                raise ValueError("choose() must return one index per lane")
            members = []
            for lane_idx, pick in enumerate(picks):
                if not 0 <= pick < len(remaining[lane_idx]):
                    raise IndexError(
                        f"lane {lane_idx}: pick {pick} outside window of "
                        f"{len(remaining[lane_idx])}"
                    )
                members.append(remaining[lane_idx].pop(pick))
            result.append(Superblock(members=tuple(members), lanes=lanes))
        return result

    def assemble(self, pools: Sequence[LanePool]) -> List[Superblock]:
        count = check_pools(pools)
        # The counters describe one assembly, as QSTR-MED's do.
        self.combinations_checked = 0
        self.pair_checks = 0
        sorted_pools = [pool.sorted_by(lambda m: m.program_total_us) for pool in pools]
        lanes = tuple(pool.lane for pool in pools)
        result: List[Superblock] = []
        position = 0
        while position < count:
            width = min(self.window, count - position)
            windows = [blocks[position : position + width] for blocks in sorted_pools]
            result.extend(self.assemble_window(windows, lanes))
            position += width
        return result


class ScoredWindowAssembler(WindowedAssembler):
    """Greedy window search over a score that ignores earlier picks.

    :meth:`score_window` gives every combination of a window a score
    (lower is better) that depends only on the combination's own blocks.
    So the window is scored once: each round takes the first C-order
    minimum of that tensor restricted to the blocks still unpicked, which
    is exactly what :meth:`choose` returns when it rescores the shrunk
    window.  The counters still follow the paper's accounting, one greedy
    round over the remaining window at a time (:meth:`count_round`).
    """

    @abstractmethod
    def score_window(self, windows: Sequence[Sequence[BlockMeasurement]]) -> np.ndarray:
        """Score of every combination, shape ``tuple(len(w) for w in windows)``."""

    def count_round(self, sizes: Sequence[int]) -> None:
        """Charge one greedy round over a window of ``sizes`` to the counters."""
        self.combinations_checked += math.prod(sizes)

    def _scores(self, windows: Sequence[Sequence[BlockMeasurement]]) -> np.ndarray:
        if len(windows) < 2:
            raise ValueError(f"{self.name} assembly needs at least two lanes")
        return self.score_window(windows)

    def choose(self, windows: Sequence[Sequence[BlockMeasurement]]) -> Tuple[int, ...]:
        scores = self._scores(windows)
        self.count_round(scores.shape)
        return _first_minimum(scores)

    def assemble_window(
        self, windows: Sequence[List[BlockMeasurement]], lanes: Tuple[int, ...]
    ) -> List[Superblock]:
        scores = self._scores(windows)
        unpicked = [list(range(len(window))) for window in windows]
        result: List[Superblock] = []
        for _ in range(len(windows[0])):
            round_scores = scores
            for axis, indices in enumerate(unpicked):
                round_scores = round_scores.take(indices, axis=axis)
            self.count_round(round_scores.shape)
            picks = _first_minimum(round_scores)
            members = tuple(
                window[indices.pop(pick)]
                for window, indices, pick in zip(windows, unpicked, picks)
            )
            result.append(Superblock(members=members, lanes=lanes))
        return result


def _first_minimum(scores: np.ndarray) -> Tuple[int, ...]:
    """Index of the first minimum of ``scores`` in C order."""
    flat = int(np.argmin(scores))
    return tuple(int(i) for i in np.unravel_index(flat, scores.shape))


def pairwise_signature_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between two signature stacks.

    ``a`` is ``(Wa, L)``, ``b`` is ``(Wb, L)``; entry (i, j) counts positions
    where the signatures disagree — Equation 1's SIM sum for one block pair.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"signature shapes disagree: {a.shape} vs {b.shape}")
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


def min_total_distance_combo(
    distance_matrices: Dict[Tuple[int, int], np.ndarray],
    window_sizes: Sequence[int],
) -> Tuple[Tuple[int, ...], float, int]:
    """Exhaustively pick the combination minimizing summed pairwise distance.

    ``distance_matrices[(i, j)]`` (i < j) holds the (Wi, Wj) distance matrix
    between lanes i and j.  Returns ``(picks, best_distance, n_combos)``.
    """
    total = summed_distances(distance_matrices, window_sizes)
    picks = _first_minimum(total)
    return picks, float(total[picks]), int(total.size)


def summed_distances(
    distance_matrices: Dict[Tuple[int, int], np.ndarray],
    window_sizes: Sequence[int],
) -> np.ndarray:
    """Summed pairwise distance of every combination, shape ``window_sizes``."""
    n = len(window_sizes)
    shape = tuple(window_sizes)
    total = np.zeros(shape)
    for (i, j), matrix in distance_matrices.items():
        if not 0 <= i < j < n:
            raise ValueError(f"bad lane pair ({i}, {j})")
        expand = [1] * n
        expand[i] = shape[i]
        expand[j] = shape[j]
        total = total + matrix.reshape(expand)
    return total
