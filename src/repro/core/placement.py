"""Function-based data placement (Section V-D).

Because QSTR-MED can organize fast and slow superblocks *on demand*, the
write path can route data by its origin and shape: host writes land in fast
superblocks (they sit on the latency-critical path), garbage-collection
relocations land in slow superblocks (they happen in the background), and —
for developers who opt in — small random host writes can be steered ahead of
large batch writes inside the fast superblock.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.assembler import SpeedClass


class WriteSource(Enum):
    """Who generated a write."""

    HOST = "host"
    GC = "gc"
    METADATA = "metadata"


@dataclass(frozen=True)
class WriteIntent:
    """The placement-relevant facts about one write."""

    source: WriteSource
    pages: int = 1
    sequential: bool = False


#: host writes of at most this many pages count as small random writes
SMALL_WRITE_PAGE_LIMIT = 8


def speed_class_for(intent: WriteIntent) -> SpeedClass:
    """Speed class of the superblock this write should go to.

    Host writes sit on the latency-critical path and go to fast
    superblocks; GC relocations and metadata writes happen in the
    background and go to slow ones.
    """
    if intent.source is WriteSource.HOST:
        return SpeedClass.FAST
    return SpeedClass.SLOW


def prefers_fast_superpage(intent: WriteIntent) -> bool:
    """In-superblock steering: small random host writes first.

    The paper's optional refinement — small random data goes to the
    high-speed superpages of a fast superblock, large batch data to its
    slower superpages.
    """
    return (
        intent.source is WriteSource.HOST
        and not intent.sequential
        and intent.pages <= SMALL_WRITE_PAGE_LIMIT
    )
