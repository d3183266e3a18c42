"""Building lane pools from probed chips.

Bridges the characterization harness to the assembly study: each lane is one
chip; its pool holds the measured blocks the assembler may group.  Mirrors
the paper's setup of four chips contributing 400 blocks each per P/E epoch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.assembly.base import LanePool
from repro.characterization.prober import Prober
from repro.nand.chip import FlashChip


def build_lane_pools(
    chips: Sequence[FlashChip],
    blocks: Sequence[int],
    *,
    planes: Sequence[int] = (0,),
    target_pe: Optional[int] = None,
) -> List[LanePool]:
    """Probe ``blocks`` on each chip (one lane per chip) and pool the results.

    Bad, worn-out and failing blocks are skipped
    (:meth:`~repro.characterization.prober.Prober.try_probe_block`), so
    pools may end up slightly uneven; assemblers consume
    ``min(len(pool))`` superblocks.
    """
    if len(chips) < 2:
        raise ValueError("need at least two chips (lanes)")
    pools: List[LanePool] = []
    for lane, chip in enumerate(chips):
        prober = Prober(chip)
        pool = LanePool(lane=lane)
        for plane in planes:
            for block in blocks:
                measurement = prober.try_probe_block(plane, block, target_pe)
                if measurement is not None:
                    pool.blocks.append(measurement)
        pools.append(pool)
    return pools
