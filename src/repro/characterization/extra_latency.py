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

from typing import List, Sequence

import numpy as np

from repro.characterization.datasets import BlockMeasurement


def _member_count(groups: Sequence[Sequence[BlockMeasurement]]) -> int:
    """The number of members every superblock in non-empty ``groups`` has."""
    width = len(groups[0])
    if width < 2 or any(len(members) != width for members in groups):
        raise ValueError(
            "every superblock needs the same number (at least two) of members"
        )
    return width


def extra_program_latencies(
    groups: Sequence[Sequence[BlockMeasurement]],
) -> List[float]:
    """Total extra program latency of each superblock in ``groups``, µs.

    The one formula behind :func:`extra_program_latency`: the members'
    latencies are stacked as one C-ordered ``(n, k, lwls)`` array, and each
    superblock's gaps are summed over the contiguous word-line axis, so a
    superblock's total does not depend on how many are stacked with it.
    Every superblock needs the same number (at least two) of members, and
    every member the same word-line matrix shape (``np.array`` raises
    ``ValueError`` otherwise).
    """
    if not groups:
        return []
    width = _member_count(groups)
    matrices = [m.wl_latencies_us for members in groups for m in members]
    stack = np.array(matrices).reshape(len(groups), width, -1)
    gaps = stack.max(axis=1) - stack.min(axis=1)
    return gaps.sum(axis=1).tolist()


def extra_program_latency(members: Sequence[BlockMeasurement]) -> float:
    """Total extra program latency of a superblock, µs.

    Sum over super word-lines of (slowest - fastest) member tPROG.
    """
    return extra_program_latencies([members])[0]


def extra_erase_latencies(
    groups: Sequence[Sequence[BlockMeasurement]],
) -> List[float]:
    """Extra erase latency of each superblock in ``groups``, µs.

    The one formula behind :func:`extra_erase_latency`: one ``(n, k)``
    array of member tBERS and one max - min along its member axis.  Every
    superblock needs the same number (at least two) of members.
    """
    if not groups:
        return []
    width = _member_count(groups)
    flat = [m.erase_latency_us for members in groups for m in members]
    latencies = np.array(flat).reshape(len(groups), width)
    return (latencies.max(axis=1) - latencies.min(axis=1)).tolist()


def extra_erase_latency(members: Sequence[BlockMeasurement]) -> float:
    """Extra erase latency of a superblock, µs (max - min of member tBERS)."""
    return extra_erase_latencies([members])[0]
