"""Direction 4: brute-force local-optimal assembly.

Within each aligned window of ``W`` program-latency-sorted candidates per
lane, find a partition into ``W`` superblocks with minimal total *measured*
extra program latency.  Exact minimization is a multi-dimensional assignment
problem, so — like the paper's "local optimal" — we approximate it: greedy
exhaustive selection (every remaining combination is counted each round,
``W**lanes`` checks for the first superblock of a window) followed by
2-opt refinement (member swaps between the window's superblocks until no
swap lowers the total).  Impractical on a real controller — the paper counts
1,638,400 combination checks for W=8 over four chips per P/E epoch — but it
is the ground reference every practical method is judged against.

The host does less work than those counts say: a combination's extra
latency does not depend on the other picks, so the greedy rounds share one
totals tensor per window (:class:`ScoredWindowAssembler`), and a swap
candidate is read from one matrix per lane pass.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.assembly.base import ScoredWindowAssembler, Superblock, Window
from repro.characterization.extra_latency import extra_program_latencies


def _combination_extremes(stacks: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-LWL max and min of every combination of ``(Wi, L)`` lane stacks.

    Both have shape ``(W0, ..., Wk-1, L)``.
    """
    expanded = []
    for lane, stack in enumerate(stacks):
        shape = [1] * len(stacks) + [stack.shape[1]]
        shape[lane] = stack.shape[0]
        expanded.append(stack.reshape(shape))
    high = low = expanded[0]
    for array in expanded[1:]:
        high = np.maximum(high, array)
        low = np.minimum(low, array)
    return high, low


class OptimalAssembler(ScoredWindowAssembler):
    """Exhaustive window search minimizing measured extra program latency."""

    name = "optimal"

    def __init__(self, window: int = 8, refine_passes: int = 4) -> None:
        super().__init__(window)
        if refine_passes < 0:
            raise ValueError("refine_passes must be >= 0")
        self.refine_passes = refine_passes
        self.name = f"optimal({window})"

    # -- greedy exhaustive pick ---------------------------------------------

    def score_windows(self, chunk: Sequence[Window]) -> np.ndarray:
        """Summed extra program latency of every combination of each window."""
        sizes = tuple(len(window) for window in chunk[0])
        totals = np.empty((len(chunk), *sizes))
        for windows, window_totals in zip(chunk, totals):
            self._score_window_into(windows, window_totals)
        return totals

    @staticmethod
    def _score_window_into(windows: Window, totals: np.ndarray) -> None:
        stacks = [
            np.stack([m.lwl_latencies() for m in window]) for window in windows
        ]  # each (Wi, L)
        sizes = totals.shape
        # Chunk over every lane but the last two, so each chunk's gaps are a
        # cache-sized W^2 x L grid; each row of L gaps is summed on its own,
        # so a total does not depend on how the window is chunked.
        split = max(1, len(stacks) - 2)
        head_max, head_min = _combination_extremes(stacks[:split])
        tail_max, tail_min = _combination_extremes(stacks[split:])
        high = np.empty(tail_max.shape)
        low = np.empty(tail_min.shape)
        for index in np.ndindex(*sizes[:split]):
            np.maximum(tail_max, head_max[index], out=high)
            np.minimum(tail_min, head_min[index], out=low)
            np.subtract(high, low, out=high)
            high.sum(axis=-1, out=totals[index])

    # -- window assembly with 2-opt refinement ----------------------------------

    def _assemble_chunk(
        self, chunk: Sequence[Window], lanes: Tuple[int, ...]
    ) -> List[List[Superblock]]:
        return [
            self.refine(superblocks, lanes)
            for superblocks in super()._assemble_chunk(chunk, lanes)
        ]

    def refine(
        self, superblocks: List[Superblock], lanes: Tuple[int, ...]
    ) -> List[Superblock]:
        """2-opt: swap two superblocks' members on one lane while that helps.

        Candidates run lane by lane, pair ``(a, b)`` in order, and a swap is
        taken as soon as it lowers the pair's summed extra latency by more
        than 1e-9 (compared in Python floats).  A swap on lane ``l`` leaves
        every superblock's max and min over its other lanes unchanged, so
        one ``(count, count)`` matrix per lane pass holds the extra latency
        of superblock ``s`` with ``t``'s lane-``l`` member; a taken swap
        exchanges two of its columns.  Windows are refined one at a time:
        one pass's ``(count, count, L)`` gaps fit in a core's cache, and a
        chunk of windows at once measured slower.
        """
        count = len(superblocks)
        if count < 2 or self.refine_passes == 0:
            return superblocks
        lane_count = len(lanes)
        members = [[sb.members[l] for sb in superblocks] for l in range(lane_count)]
        rows = np.stack(
            [[m.lwl_latencies() for m in lane_members] for lane_members in members]
        )  # (lanes, count, L)
        extras = extra_program_latencies([sb.members for sb in superblocks])
        high = np.empty((count, count, rows.shape[2]))
        low = np.empty(high.shape)

        for _ in range(self.refine_passes):
            improved = False
            for lane in range(lane_count):
                others = np.delete(rows, lane, axis=0)
                own = rows[lane][None, :, :]
                np.maximum(others.max(axis=0)[:, None, :], own, out=high)
                np.minimum(others.min(axis=0)[:, None, :], own, out=low)
                np.subtract(high, low, out=high)
                with_member = high.sum(axis=-1).tolist()
                # two superblocks rescored per candidate swap
                self.combinations_checked += count * (count - 1)
                for a in range(count):
                    for b in range(a + 1, count):
                        new_a = with_member[a][b]
                        new_b = with_member[b][a]
                        if new_a + new_b + 1e-9 < extras[a] + extras[b]:
                            members[lane][a], members[lane][b] = (
                                members[lane][b],
                                members[lane][a],
                            )
                            rows[lane, [a, b]] = rows[lane, [b, a]]
                            for row in with_member:
                                row[a], row[b] = row[b], row[a]
                            extras[a], extras[b] = new_a, new_b
                            improved = True
            if not improved:
                break

        return [
            Superblock(
                members=tuple(members[l][s] for l in range(lane_count)), lanes=lanes
            )
            for s in range(count)
        ]
