"""Directions 5-8: rank/eigen signature window search.

All four share the greedy frame of :class:`ScoredWindowAssembler` and
Equation 1's distance (positions where two blocks' signatures disagree,
summed over every lane pair of a candidate combination); they differ only in
the signature kernel.  Signatures and lane-pair distance matrices are
computed once for a whole chunk of windows (one kernel call per lane, one
comparison per lane pair); the greedy rounds then read them for the
unpicked blocks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.assembly.base import (
    ScoredWindowAssembler,
    Window,
    pairwise_signature_distances,
    summed_distances,
)
from repro.assembly.signatures import (
    lwl_ranks,
    pwl_ranks,
    str_median_bits,
    str_ranks,
)
from repro.perf.profiler import perf_scope


class RankWindowAssembler(ScoredWindowAssembler):
    """Window search minimizing summed pairwise signature distance.

    ``kernel`` maps ``(k, layers, strings)`` latencies to ``k`` signatures
    of the same shape (one of the :mod:`repro.assembly.signatures` kernels).
    """

    def __init__(self, window: int, kernel: Callable[[np.ndarray], np.ndarray]) -> None:
        super().__init__(window)
        self._kernel = kernel

    def score_windows(self, chunk: Sequence[Window]) -> np.ndarray:
        sizes = [len(window) for window in chunk[0]]
        stacks: List[np.ndarray] = []
        for lane, size in enumerate(sizes):
            latencies = np.array([m.wl_latencies_us for windows in chunk for m in windows[lane]])
            with perf_scope("assembly.signatures"):
                signatures = self._kernel(latencies)
            stacks.append(signatures.reshape(len(chunk), size, -1))
        matrices: Dict[Tuple[int, int], np.ndarray] = {
            (i, j): pairwise_signature_distances(stacks[i], stacks[j])
            for i in range(len(stacks))
            for j in range(i + 1, len(stacks))
        }
        return summed_distances(matrices, sizes)

    def count_round(self, sizes: Sequence[int], windows: int = 1) -> None:
        super().count_round(sizes, windows)
        self.pair_checks += windows * sum(
            sizes[i] * sizes[j]
            for i in range(len(sizes))
            for j in range(i + 1, len(sizes))
        )


class LwlRankAssembler(RankWindowAssembler):
    """Direction 5: full logical-word-line rank vectors."""

    name = "lwl_rank"

    def __init__(self, window: int = 8) -> None:
        super().__init__(window, lwl_ranks)
        self.name = f"lwl_rank({window})"


class PwlRankAssembler(RankWindowAssembler):
    """Direction 6: per-string physical-word-line rank vectors."""

    name = "pwl_rank"

    def __init__(self, window: int = 8) -> None:
        super().__init__(window, pwl_ranks)
        self.name = f"pwl_rank({window})"


class StrRankAssembler(RankWindowAssembler):
    """Direction 7: per-layer string rank vectors."""

    name = "str_rank"

    def __init__(self, window: int = 8) -> None:
        super().__init__(window, str_ranks)
        self.name = f"str_rank({window})"


class StrMedianAssembler(RankWindowAssembler):
    """Direction 8: 1-bit-per-(layer, string) speed-class signatures.

    The distance reduces to popcount(a XOR b); this is the scheme QSTR-MED
    (``repro.core``) makes practical by dropping the all-combinations search.
    """

    name = "str_med"

    def __init__(self, window: int = 4) -> None:
        super().__init__(window, str_median_bits)
        self.name = f"str_med({window})"
