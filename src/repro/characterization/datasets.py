"""The measurement record produced by the characterization prober.

A :class:`BlockMeasurement` is what the paper's tester records per block
(Figure 9's latency table plus tBERS): the full per-(layer, string) tPROG
matrix, the accumulated block program latency, the erase latency, and the
P/E count at which the measurement was taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class BlockMeasurement:
    """Latency measurement of one fully-programmed block."""

    chip_id: int
    plane: int
    block: int
    pe_cycles: int
    wl_latencies_us: np.ndarray  # (layers, strings), read-only
    erase_latency_us: float

    def __post_init__(self) -> None:
        if self.wl_latencies_us.ndim != 2:
            raise ValueError("wl_latencies_us must be (layers, strings)")

    @cached_property
    def program_total_us(self) -> float:
        """Block program latency — the paper's BLK PGM LTN (sum of all LWLs).

        Summed once per measurement: the matrix is read-only, and the
        windowed directions sort every pool by it.  The cache lives in the
        instance ``__dict__``, outside the dataclass fields, so equality,
        hashing and ``repr`` do not see it.
        """
        return float(self.wl_latencies_us.sum())

    @property
    def layers(self) -> int:
        return self.wl_latencies_us.shape[0]

    @property
    def strings(self) -> int:
        return self.wl_latencies_us.shape[1]

    def lwl_latencies(self) -> np.ndarray:
        """Flat per-LWL latencies in programming order, shape ``(layers*strings,)``."""
        return self.wl_latencies_us.reshape(-1)

    def key(self) -> Tuple[int, int, int]:
        return (self.chip_id, self.plane, self.block)

    def __repr__(self) -> str:
        return (
            f"BlockMeasurement(c{self.chip_id}/p{self.plane}/b{self.block}"
            f"@pe{self.pe_cycles}, pgm={self.program_total_us:,.1f}us, "
            f"ers={self.erase_latency_us:,.1f}us)"
        )

