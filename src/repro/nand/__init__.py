"""NAND device model: geometry, process variation, stateful chips.

This package is the substrate that replaces the paper's physical testbed
(24 SK hynix 3D TLC dies).  See DESIGN.md Section 4 for the latency model.
"""

from repro.nand.chip import FlashChip
from repro.nand.geometry import PAPER_GEOMETRY, SMALL_GEOMETRY, NandGeometry, PageType
from repro.nand.reliability import EccConfig, EccEngine, ReliabilityParams, rber
from repro.nand.variation import VariationModel, VariationParams

__all__ = [
    "FlashChip",
    "NandGeometry",
    "PageType",
    "PAPER_GEOMETRY",
    "SMALL_GEOMETRY",
    "EccConfig",
    "EccEngine",
    "ReliabilityParams",
    "rber",
    "VariationModel",
    "VariationParams",
]
