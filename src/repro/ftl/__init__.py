"""Flash translation layer: page mapping, superblock striping, GC, allocation.

The FTL is the substrate that lets QSTR-MED run end-to-end under real write
streams; its allocator is pluggable so the same data path compares
similarity-checked superblocks against random/sequential baselines.
"""

from repro.ftl.config import FtlConfig
from repro.ftl.ftl import Ftl, IntegrityError, OutOfSpaceError
from repro.ftl.superblock import ManagedSuperblock
from repro.ftl.wear_leveling import WearLeveler, WearLevelingConfig
from repro.ftl.writebuffer import WriteStream

__all__ = [
    "Ftl",
    "FtlConfig",
    "OutOfSpaceError",
    "IntegrityError",
    "ManagedSuperblock",
    "WearLeveler",
    "WearLevelingConfig",
    "WriteStream",
]
