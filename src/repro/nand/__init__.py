"""NAND device model: geometry, process variation, stateful chips, packages.

This package is the substrate that replaces the paper's physical testbed
(24 SK hynix 3D TLC dies).  See DESIGN.md Section 4 for the latency model.
"""

from repro.nand.chip import (
    BlockProgramResult,
    FlashChip,
    MultiPlaneResult,
    OperationResult,
)
from repro.nand.commands import (
    CommandKind,
    CommandLog,
    CommandResult,
    EraseTarget,
    FlashCommand,
    ProgramTarget,
    ReadTarget,
    erase_command,
    execute,
    program_command,
    read_command,
)
from repro.nand.geometry import (
    PAPER_GEOMETRY,
    SMALL_GEOMETRY,
    BlockAddress,
    NandGeometry,
    PageAddress,
    PageType,
    WordLineAddress,
)
from repro.nand.package import (
    PAPER_TESTBED_SPECS,
    FlashPackage,
    PackageSpec,
    build_package,
    build_paper_testbed,
    testbed_chips,
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
    "MultiPlaneResult",
    "OperationResult",
    "CommandKind",
    "CommandLog",
    "CommandResult",
    "FlashCommand",
    "ReadTarget",
    "ProgramTarget",
    "EraseTarget",
    "read_command",
    "program_command",
    "erase_command",
    "execute",
    "NandGeometry",
    "PageType",
    "BlockAddress",
    "WordLineAddress",
    "PageAddress",
    "PAPER_GEOMETRY",
    "SMALL_GEOMETRY",
    "FlashPackage",
    "PackageSpec",
    "build_package",
    "build_paper_testbed",
    "testbed_chips",
    "PAPER_TESTBED_SPECS",
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
