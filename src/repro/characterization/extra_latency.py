"""Extra-latency definitions (Section III-A / Figure 4 of the paper).

A multi-plane command completes when its slowest member finishes, so:

* **extra erase latency** of a superblock = max(tBERS) - min(tBERS) over its
  member blocks;
* **extra program latency** of a super word-line = max(tPROG) - min(tPROG)
  over the member word-lines; the superblock's extra program latency is the
  *sum* of this gap over every super word-line (the paper's Figure 6 note).

These functions operate on :class:`BlockMeasurement` groups — the shape a
superblock takes in the offline assembly study.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.characterization.datasets import BlockMeasurement


def _stack_wl_latencies(members: Sequence[BlockMeasurement]) -> np.ndarray:
    """Stack member blocks' per-LWL latencies, shape ``(k, lwls)``."""
    if len(members) < 2:
        raise ValueError("a superblock needs at least two member blocks")
    flats = [m.lwl_latencies() for m in members]
    width = flats[0].shape[0]
    for flat in flats[1:]:
        if flat.shape[0] != width:
            raise ValueError("member blocks disagree on word-line count")
    return np.stack(flats)


def extra_program_latency(members: Sequence[BlockMeasurement]) -> float:
    """Total extra program latency of a superblock, µs.

    Sum over super word-lines of (slowest - fastest) member tPROG.
    """
    stacked = _stack_wl_latencies(members)
    gaps = stacked.max(axis=0) - stacked.min(axis=0)
    return float(gaps.sum())


def extra_erase_latency(members: Sequence[BlockMeasurement]) -> float:
    """Extra erase latency of a superblock, µs (max - min of member tBERS)."""
    if len(members) < 2:
        raise ValueError("a superblock needs at least two member blocks")
    latencies = [m.erase_latency_us for m in members]
    return max(latencies) - min(latencies)

