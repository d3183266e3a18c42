"""Static wear leveling.

The PV-aware allocator optimizes for *speed*; left alone it will happily
keep recycling the same fast blocks while cold data parks on others — the
classic skew static wear leveling corrects.  This module implements the
standard threshold scheme (Chang et al., DAC'07 flavor): when the gap
between the hottest and coldest usable block exceeds a threshold, the
coldest sealed superblock is relocated so its little-erased blocks return
to the free pool.

The leveler is advisory: it watches erase counts through the chips (the
same interface the FTL uses) and nominates victims; the FTL executes the
relocation with its normal GC machinery, so all placement/metadata rules
keep holding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.nand.chip import FlashChip


@dataclass(frozen=True)
class WearLevelingConfig:
    """Threshold policy knobs."""

    pe_gap_threshold: int = 64
    check_interval_erases: int = 16

    def __post_init__(self) -> None:
        if self.pe_gap_threshold < 1:
            raise ValueError("pe_gap_threshold must be >= 1")
        if self.check_interval_erases < 1:
            raise ValueError("check_interval_erases must be >= 1")


@dataclass(frozen=True)
class WearReport:
    """Snapshot of wear spread over the usable blocks."""

    min_pe: int
    max_pe: int
    mean_pe: float

    @property
    def gap(self) -> int:
        return self.max_pe - self.min_pe


class WearLeveler:
    """Tracks erase-count spread and nominates cold superblocks for rotation."""

    def __init__(
        self,
        chips: Dict[int, FlashChip],
        usable: Sequence[Tuple[int, int, int]],
        config: WearLevelingConfig = WearLevelingConfig(),
    ) -> None:
        """``usable`` lists every managed (lane, plane, block)."""
        if not usable:
            raise ValueError("no usable blocks to level")
        self._chips = chips
        self._usable = list(usable)
        self.config = config
        self._erases_since_check = 0
        #: how many times the leveler nominated a rotation
        self.rotations_triggered = 0

    # -- observation ---------------------------------------------------------

    def note_erase(self) -> bool:
        """Count one erase; returns True when a wear check is due."""
        self._erases_since_check += 1
        if self._erases_since_check >= self.config.check_interval_erases:
            self._erases_since_check = 0
            return True
        return False

    def pe_of(self, lane: int, plane: int, block: int) -> int:
        return self._chips[lane].pe_cycles(plane, block)

    def report(self) -> WearReport:
        counts = [
            self.pe_of(lane, plane, block)
            for lane, plane, block in self._usable
            if not self._chips[lane].is_bad(plane, block)
        ]
        if not counts:
            raise ValueError("all usable blocks are bad")
        return WearReport(
            min_pe=min(counts), max_pe=max(counts), mean_pe=sum(counts) / len(counts)
        )

    def gap_exceeded(self) -> bool:
        report = self.report()
        return report.gap > self.config.pe_gap_threshold

    # -- victim nomination ---------------------------------------------------------

    def nominate(
        self, candidates: Iterable[Tuple[int, Sequence[Tuple[int, int, int]]]]
    ) -> Optional[int]:
        """The sealed superblock to rotate, if any.

        ``candidates`` yields ``(superblock_id, [(lane, plane, block), ...])``.
        The coldest by mean member P/E wins, the first in ``candidates``
        order on ties; a coldest candidate hotter than the mean over the
        usable blocks is not worth rotating.  Returns the chosen superblock
        id or None; a nomination counts toward ``rotations_triggered``.
        """
        victim: Optional[int] = None
        victim_pe = 0.0
        for sb_id, members in candidates:
            members = list(members)
            if not members:
                continue
            mean_pe = sum(self.pe_of(*member) for member in members) / len(members)
            if victim is None or mean_pe < victim_pe:
                victim, victim_pe = sb_id, mean_pe
        if victim is None or victim_pe > self.report().mean_pe:
            return None
        self.rotations_triggered += 1
        return victim
