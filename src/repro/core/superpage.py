"""Superpage speed prediction (Section V-D's in-superblock steering).

A fast superblock still contains faster and slower super word-lines: the
common layer shape makes some layers quick, and each member block's eigen
sequence says which of its strings run fast.  The paper suggests writing
"small random data to a high-speed superpage and large batch data to a slow
superpage" — to do that at runtime the controller must *predict* how fast
the next super word-line of each open superblock will program.

:class:`SuperpagePredictor` learns, per lane, the average program latency of
every LWL position (the layer shape plus chip profile, which the controller
cannot know a priori) and the average speed gap between eigen-bit-0 (fast)
and eigen-bit-1 (slow) word-lines.  Prediction for a member block at a given
LWL is then ``lane_curve[lwl] + bit_adjustment(eigen[lwl])``; a super
word-line's predicted completion is the max over members (MP semantics).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.records import BlockRecord
from repro.nand.geometry import NandGeometry


class SuperpagePredictor:
    """Online per-lane LWL latency model with eigen-bit adjustment."""

    def __init__(self, geometry: NandGeometry, lanes: Sequence[int]) -> None:
        self._geometry = geometry
        lwls = geometry.lwls_per_block
        self._sum: Dict[int, np.ndarray] = {lane: np.zeros(lwls) for lane in lanes}
        self._count: Dict[int, np.ndarray] = {lane: np.zeros(lwls) for lane in lanes}
        # bit-conditioned accumulators: [bit0, bit1] per lane
        self._bit_sum: Dict[int, np.ndarray] = {lane: np.zeros(2) for lane in lanes}
        self._bit_count: Dict[int, np.ndarray] = {lane: np.zeros(2) for lane in lanes}
        self.observations = 0
        self._ready = False

    # -- learning -----------------------------------------------------------

    def observe(self, lane: int, lwl: int, latency_us: float, eigen_bit: int) -> None:
        """Feed one measured word-line program (with the block's eigen bit)."""
        self._geometry.check_lwl(lwl)
        if eigen_bit not in (0, 1):
            raise ValueError(f"eigen_bit must be 0/1, got {eigen_bit}")
        self._sum[lane][lwl] += latency_us
        self._count[lane][lwl] += 1
        self._bit_sum[lane][eigen_bit] += latency_us
        self._bit_count[lane][eigen_bit] += 1
        self.observations += 1

    def observe_record(self, record: BlockRecord, wl_latencies: np.ndarray) -> None:
        """Bulk-learn from a fully measured block (e.g. at format time).

        The same sums as one :meth:`observe` per word-line in LWL order:
        every LWL position takes one addition, and each bit-conditioned sum
        is a strict left fold (``np.cumsum``) over that bit's word-lines.
        """
        flat = np.asarray(wl_latencies, dtype=float).reshape(-1)
        lwls = self._geometry.lwls_per_block
        if flat.size != lwls or len(record.eigen) != lwls:
            raise ValueError(
                f"need {lwls} word-line latencies and eigen bits, got "
                f"{flat.size} and {len(record.eigen)}"
            )
        lane = record.lane
        self._sum[lane] += flat
        self._count[lane] += 1
        bits = np.array(record.eigen.to_bits())
        bit_sum = self._bit_sum[lane]
        for bit in (0, 1):
            chosen = flat[bits == bit]
            if chosen.size:
                bit_sum[bit] = np.cumsum(np.concatenate(([bit_sum[bit]], chosen)))[-1]
                self._bit_count[lane][bit] += chosen.size
        self.observations += lwls

    # -- prediction --------------------------------------------------------------

    def _lane_mean(self, lane: int) -> float:
        total = self._count[lane].sum()
        if total == 0:
            return 0.0
        return float(self._sum[lane].sum() / total)

    # The two per-prediction lookups below run in Python floats: the same
    # IEEE divisions and subtractions as on numpy scalars, in the same order
    # (a two-element ``.sum()`` is the one addition ``a + b``).

    def lane_curve_value(self, lane: int, lwl: int) -> float:
        """Learned mean latency of this LWL position on this lane."""
        self._geometry.check_lwl(lwl)
        count = self._count[lane].item(lwl)
        if count == 0:
            return self._lane_mean(lane)
        return self._sum[lane].item(lwl) / count

    def bit_adjustment(self, lane: int, eigen_bit: int) -> float:
        """Learned offset of bit-0 (fast) / bit-1 (slow) word-lines vs the mean."""
        counts = self._bit_count[lane].tolist()
        total = counts[0] + counts[1]
        if counts[eigen_bit] == 0 or total == 0:
            return 0.0
        sums = self._bit_sum[lane].tolist()
        bit_mean = sums[eigen_bit] / counts[eigen_bit]
        overall = (sums[0] + sums[1]) / total
        return bit_mean - overall

    def predict_member(self, record: BlockRecord, lwl: int) -> float:
        """Predicted tPROG of one member block's word-line."""
        return self.lane_curve_value(record.lane, lwl) + self.bit_adjustment(
            record.lane, record.eigen[lwl]
        )

    def predict_superwl(self, members: Sequence[BlockRecord], lwl: int) -> float:
        """Predicted completion (max over members) of one super word-line."""
        if not members:
            raise ValueError("empty superblock")
        return max(self.predict_member(record, lwl) for record in members)

    def ready(self) -> bool:
        """True once every lane has at least some observations.

        Counts only grow, so the answer latches once it is true.
        """
        if not self._ready:
            self._ready = all(counts.sum() > 0 for counts in self._count.values())
        return self._ready
