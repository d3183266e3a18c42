"""The per-block metadata QSTR-MED keeps (Section V-B / Equation 2).

For each candidate free block the scheme retains exactly two things: the
accumulated block program latency (one integer's worth — guides the block's
position in its chip's sorted list) and the eigen sequence (one bit per
logical word-line — feeds the XOR similarity check).  :meth:`metadata_bytes`
is the storage cost Equation 2 charges per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.utils.bitvec import BitVector

#: bytes used to store the accumulated block program latency (Equation 2)
PGM_LATENCY_BYTES = 4


@dataclass(frozen=True)
class BlockRecord:
    """Similarity metadata of one fully-gathered block."""

    lane: int
    plane: int
    block: int
    pgm_total_us: float
    eigen: BitVector
    pe_cycles: int = 0

    def distance_to(self, other: "BlockRecord") -> int:
        """XOR-popcount similarity distance to another block's eigen."""
        return self.eigen.hamming_distance(other.eigen)

    def metadata_bytes(self) -> int:
        """Per-block footprint: latency integer + eigen bits (Equation 2)."""
        return PGM_LATENCY_BYTES + (len(self.eigen) + 7) // 8

    def key(self) -> Tuple[int, int, int]:
        return (self.lane, self.plane, self.block)

    def __str__(self) -> str:
        return (
            f"BlockRecord(lane{self.lane}/p{self.plane}/b{self.block}, "
            f"pgm={self.pgm_total_us:,.1f}us)"
        )


def closest_candidate(
    reference: BlockRecord, candidates: Sequence[BlockRecord]
) -> BlockRecord:
    """The candidate whose eigen sequence is closest to ``reference``'s.

    This is QSTR-MED's pair check: one XOR-popcount per candidate.  The
    first of equally close candidates wins, so the caller's candidate
    order (catalog order) breaks ties.
    """
    if not candidates:
        raise ValueError("no candidates to pair with the reference block")
    return min(candidates, key=reference.distance_to)
