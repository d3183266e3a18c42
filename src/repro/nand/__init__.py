"""NAND device model: geometry, process variation, stateful chips.

This package is the substrate that replaces the paper's physical testbed
(24 SK hynix 3D TLC dies).  See DESIGN.md Section 4 for the latency model.
"""

from repro.nand.chip import BlockProgramResult, FlashChip, OperationResult
from repro.nand.geometry import (
    PAPER_GEOMETRY,
    SMALL_GEOMETRY,
    BlockAddress,
    NandGeometry,
    PageAddress,
    PageType,
    WordLineAddress,
)
from repro.nand.reliability import (
    EccConfig,
    EccEngine,
    ReadCorrection,
    ReliabilityParams,
    rber,
)
from repro.nand.variation import (
    ChipVariationProfile,
    SharedWaferField,
    VariationModel,
    VariationParams,
)

__all__ = [
    "FlashChip",
    "BlockProgramResult",
    "OperationResult",
    "NandGeometry",
    "PageType",
    "BlockAddress",
    "WordLineAddress",
    "PageAddress",
    "PAPER_GEOMETRY",
    "SMALL_GEOMETRY",
    "EccConfig",
    "EccEngine",
    "ReadCorrection",
    "ReliabilityParams",
    "rber",
    "ChipVariationProfile",
    "SharedWaferField",
    "VariationModel",
    "VariationParams",
]
