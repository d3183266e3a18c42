"""Free-block allocation policies behind the FTL.

The FTL asks its allocator for one block per lane whenever it opens a new
superblock.  :class:`QstrAllocator` delegates to the runtime QSTR-MED scheme
(similarity-checked, on-demand fast/slow assembly); :class:`SimpleAllocator`
implements the baselines modern SSDs ship — random pairing, same-offset
(sequential) pairing, and plain program-latency-sorted pairing — over the
same bookkeeping so end-to-end comparisons are apples to apples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assembler import SpeedClass
from repro.core.records import BlockRecord
from repro.core.scheme import QstrMedScheme
from repro.nand.geometry import NandGeometry
from repro.obs.registry import MetricsRegistry
from repro.policy.base import AssemblyPolicy, RepairContext, RepairPolicy
from repro.policy.static import speed_candidates
from repro.utils.rng import derive_seed

#: How many speed-matched free blocks a repair policy drafts a spare from.
DEFAULT_REPAIR_DEPTH = 4


def _draft_record(
    policy: RepairPolicy,
    lane: int,
    speed_class: SpeedClass,
    survivors: Sequence[BlockRecord],
    pool: Sequence[BlockRecord],
    candidates: Sequence[BlockRecord],
    rng: "np.random.Generator",
) -> BlockRecord:
    """Shared spare choice over a precomputed pool + candidate slice."""
    return policy.draft(
        RepairContext(
            lane=lane,
            speed_class=speed_class,
            survivors=tuple(survivors),
            pool=tuple(pool),
            candidates=tuple(candidates),
            rng=rng,
        )
    )


class AllocationError(Exception):
    """A lane ran out of free blocks."""


class BlockAllocator(ABC):
    """Interface the FTL uses to obtain and recycle physical blocks."""

    def __init__(self, lanes: Sequence[int]) -> None:
        if len(set(lanes)) != len(lanes):
            raise ValueError(f"duplicate lanes: {lanes}")
        self.lanes = list(lanes)

    @abstractmethod
    def register_free(self, record: BlockRecord) -> None:
        """Add a free (erased) block with its gathered metadata."""

    @abstractmethod
    def allocate(self, speed_class: SpeedClass) -> Tuple[BlockRecord, ...]:
        """Take one free block per lane for a new superblock."""

    @abstractmethod
    def free_count(self, lane: int) -> int:
        """Free blocks available on a lane."""

    @abstractmethod
    def on_block_freed(self, lane: int, plane: int, block: int) -> None:
        """A previously-allocated block was erased and is free again."""

    @abstractmethod
    def on_block_retired(self, lane: int, plane: int, block: int) -> None:
        """A block wore out; drop it permanently."""

    @abstractmethod
    def draft_spare(
        self,
        lane: int,
        speed_class: SpeedClass,
        survivors: Sequence[BlockRecord],
        policy: RepairPolicy,
        rng: "np.random.Generator",
    ) -> BlockRecord:
        """Take one free block from ``lane`` to repair a damaged superblock."""

    @abstractmethod
    def purge_plane(self, lane: int, plane: int) -> int:
        """Drop every free block of a dead plane; returns how many."""

    def min_free(self) -> int:
        return min(self.free_count(lane) for lane in self.lanes)

    # Gathering hooks: only the QSTR-MED allocator cares.

    def on_block_allocated(self, lane: int, plane: int, block: int, pe_cycles: int) -> None:
        """Called when a block starts being written."""

    def on_wordline_programmed(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> None:
        """Called with every word-line's measured program latency."""

    def metadata_bytes(self) -> int:
        """Allocator metadata footprint (0 for metadata-free baselines)."""
        return 0

    @property
    def pair_checks(self) -> int:
        """Similarity pair checks performed so far (0 for baselines)."""
        return 0


class QstrAllocator(BlockAllocator):
    """QSTR-MED-backed allocation: similarity-checked fast/slow superblocks."""

    def __init__(
        self,
        geometry: NandGeometry,
        lanes: Sequence[int],
        candidate_depth: int = 4,
        registry: Optional[MetricsRegistry] = None,
        assembly_policy: Optional[AssemblyPolicy] = None,
    ) -> None:
        super().__init__(lanes)
        self._assembly_policy = assembly_policy
        self.scheme = QstrMedScheme(
            geometry,
            lanes,
            candidate_depth,
            registry=registry,
            chooser=assembly_policy,
        )

    def register_free(self, record: BlockRecord) -> None:
        self.scheme.register_free_block(record)

    def allocate(self, speed_class: SpeedClass) -> Tuple[BlockRecord, ...]:
        if self.scheme.min_free_blocks() < 1:
            raise AllocationError("a lane has no free blocks")
        return self.scheme.assemble(speed_class).members

    def free_count(self, lane: int) -> int:
        return self.scheme.free_blocks(lane)

    def on_block_allocated(self, lane: int, plane: int, block: int, pe_cycles: int) -> None:
        self.scheme.note_block_allocated(lane, plane, block, pe_cycles)

    def on_wordline_programmed(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> None:
        self.scheme.note_wordline_programmed(lane, plane, block, lwl, latency_us)
        if self._assembly_policy is not None:
            # learned assembly policies refine their per-block estimates
            # from the same measured latencies the catalogs gather
            self._assembly_policy.observe_program(lane, plane, block, lwl, latency_us)

    def on_block_freed(self, lane: int, plane: int, block: int) -> None:
        self.scheme.note_block_freed(lane, plane, block)

    def on_block_retired(self, lane: int, plane: int, block: int) -> None:
        self.scheme.note_block_retired(lane, plane, block)

    def draft_spare(
        self,
        lane: int,
        speed_class: SpeedClass,
        survivors: Sequence[BlockRecord],
        policy: RepairPolicy,
        rng: "np.random.Generator",
    ) -> BlockRecord:
        catalog = self.scheme.catalog(lane)
        pool = list(catalog)
        if not pool:
            raise AllocationError(f"lane {lane} has no free blocks for repair")
        depth = min(self.scheme.candidate_depth, len(pool))
        candidates = (
            catalog.head_candidates(depth)
            if speed_class is SpeedClass.FAST
            else catalog.tail_candidates(depth)
        )
        record = _draft_record(
            policy, lane, speed_class, survivors, pool, candidates, rng
        )
        self.scheme.take_free_block(record)
        return record

    def purge_plane(self, lane: int, plane: int) -> int:
        return self.scheme.purge_plane(lane, plane)

    def metadata_bytes(self) -> int:
        return self.scheme.metadata_bytes()

    @property
    def pair_checks(self) -> int:
        return self.scheme.total_pair_checks


class SimpleAllocator(BlockAllocator):
    """Baseline allocation: ``random``, ``sequential`` or ``pgm_sorted``.

    Keeps the same BlockRecord bookkeeping (so blocks can be re-listed when
    freed) but ignores eigen sequences entirely.
    """

    STRATEGIES = ("random", "sequential", "pgm_sorted")

    def __init__(
        self, lanes: Sequence[int], strategy: str = "random", seed: int = 0
    ) -> None:
        super().__init__(lanes)
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {self.STRATEGIES}")
        self.strategy = strategy
        self._rng = np.random.default_rng(
            derive_seed(seed, "ftl", "allocator", strategy)
        )
        self._free: Dict[int, List[BlockRecord]] = {lane: [] for lane in lanes}
        self._in_use: Dict[Tuple[int, int, int], BlockRecord] = {}

    def register_free(self, record: BlockRecord) -> None:
        self._free[record.lane].append(record)

    def free_count(self, lane: int) -> int:
        return len(self._free[lane])

    def _pick(self, lane: int) -> BlockRecord:
        pool = self._free[lane]
        if not pool:
            raise AllocationError(f"lane {lane} has no free blocks")
        if self.strategy == "random":
            index = int(self._rng.integers(len(pool)))
        elif self.strategy == "sequential":
            index = min(range(len(pool)), key=lambda i: (pool[i].plane, pool[i].block))
        else:  # pgm_sorted
            index = min(range(len(pool)), key=lambda i: pool[i].pgm_total_us)
        return pool.pop(index)

    def allocate(self, speed_class: SpeedClass) -> Tuple[BlockRecord, ...]:
        members = tuple(self._pick(lane) for lane in self.lanes)
        for record in members:
            self._in_use[record.key()] = record
        return members

    def on_block_freed(self, lane: int, plane: int, block: int) -> None:
        record = self._in_use.pop((lane, plane, block), None)
        if record is None:
            raise KeyError(f"block ({lane}, {plane}, {block}) was not in use")
        self._free[lane].append(record)

    def on_block_retired(self, lane: int, plane: int, block: int) -> None:
        self._in_use.pop((lane, plane, block), None)

    def draft_spare(
        self,
        lane: int,
        speed_class: SpeedClass,
        survivors: Sequence[BlockRecord],
        policy: RepairPolicy,
        rng: "np.random.Generator",
    ) -> BlockRecord:
        pool = self._free[lane]
        if not pool:
            raise AllocationError(f"lane {lane} has no free blocks for repair")
        depth = min(DEFAULT_REPAIR_DEPTH, len(pool))
        candidates = speed_candidates(pool, speed_class, depth)
        record = _draft_record(
            policy, lane, speed_class, survivors, pool, candidates, rng
        )
        pool.remove(record)
        self._in_use[record.key()] = record
        return record

    def purge_plane(self, lane: int, plane: int) -> int:
        pool = self._free[lane]
        keep = [record for record in pool if record.plane != plane]
        purged = len(pool) - len(keep)
        self._free[lane] = keep
        return purged


def make_allocator(
    kind: str,
    geometry: NandGeometry,
    lanes: Sequence[int],
    *,
    candidate_depth: int = 4,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
    assembly_policy: Optional[AssemblyPolicy] = None,
) -> BlockAllocator:
    """Factory: ``qstr`` | ``random`` | ``sequential`` | ``pgm_sorted``.

    ``registry`` (optional) receives the QSTR-MED gather/assemble/allocate
    phase counters; the baselines have no phases to count.
    ``assembly_policy`` plugs the member choice of the runtime QSTR-MED
    scheme; the baselines ignore it (they do no similarity assembly).
    """
    if kind == "qstr":
        return QstrAllocator(
            geometry,
            lanes,
            candidate_depth,
            registry,
            assembly_policy=assembly_policy,
        )
    if kind in SimpleAllocator.STRATEGIES:
        return SimpleAllocator(lanes, kind, seed)
    raise ValueError(f"unknown allocator kind {kind!r}")
