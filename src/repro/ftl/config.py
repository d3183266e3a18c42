"""FTL configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ftl.wear_leveling import WearLevelingConfig


@dataclass(frozen=True)
class FtlConfig:
    """Sizing and policy knobs of the page-mapping FTL.

    ``usable_blocks_per_plane`` bounds the physical region the FTL manages —
    simulations usually run on a slice of the chip to keep bootstrap cheap.
    ``overprovision_ratio`` reserves physical capacity above the logical
    space, and GC starts when any lane's free-block count drops to
    ``gc_low_watermark`` (and runs until ``gc_high_watermark``).
    """

    usable_blocks_per_plane: int = 64
    planes_used: int = 1
    overprovision_ratio: float = 0.25
    gc_low_watermark: int = 3
    gc_high_watermark: int = 5
    candidate_depth: int = 4
    wear_leveling: Optional[WearLevelingConfig] = None  # None = disabled
    superpage_steering: bool = False  # Section V-D express/bulk fast streams
    parity_protection: bool = False  # RAID-4 row parity on the last lane
    max_repair_attempts: int = 4  # bounded retries per failed super word-line

    def __post_init__(self) -> None:
        if self.usable_blocks_per_plane < 4:
            raise ValueError("need at least 4 usable blocks per plane")
        if self.planes_used < 1:
            raise ValueError("planes_used must be >= 1")
        if not 0.0 < self.overprovision_ratio < 1.0:
            raise ValueError("overprovision_ratio must be in (0, 1)")
        if self.gc_low_watermark < 1:
            raise ValueError("gc_low_watermark must be >= 1")
        if self.gc_high_watermark < self.gc_low_watermark:
            raise ValueError("gc_high_watermark must be >= gc_low_watermark")
        if self.max_repair_attempts < 1:
            raise ValueError("max_repair_attempts must be >= 1")
