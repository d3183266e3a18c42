"""The QSTR-MED scheme: gathering + catalogs + on-demand assembly + placement.

Two entry points:

* :class:`QstrMedScheme` — the *runtime* form an FTL embeds (Figure 8).  It
  listens to program-latency reports, keeps per-lane sorted catalogs of free
  blocks, assembles fast/slow superblocks on demand and routes writes by
  origin.  Records refresh continuously: a block's new eigen sequence and
  latency sum, gathered while it is being written, replace its catalog entry
  when the block becomes free again.
* :class:`QstrMedAssembler` — an offline adapter with the
  :class:`~repro.assembly.base.Assembler` interface, so the evaluation
  harness can compare QSTR-MED head-to-head with the eight directions on
  identical measured pools (Table V).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.assembly.base import Assembler, LanePool, Superblock, check_pools
from repro.characterization.datasets import BlockMeasurement
from repro.core.assembler import (
    MemberChooser,
    OnDemandAssembler,
    SpeedClass,
    SuperblockChoice,
)
from repro.core.catalog import BlockCatalog
from repro.core.gathering import GatheringUnit
from repro.core.placement import WriteIntent, speed_class_for
from repro.core.records import BlockRecord
from repro.nand.geometry import NandGeometry
from repro.obs.registry import MetricsRegistry


class QstrMedScheme:
    """Runtime QSTR-MED: the three cooperating components of Figure 8."""

    def __init__(
        self,
        geometry: NandGeometry,
        lanes: Sequence[int],
        candidate_depth: int = 4,
        registry: Optional[MetricsRegistry] = None,
        chooser: Optional[MemberChooser] = None,
    ) -> None:
        if len(set(lanes)) != len(lanes):
            raise ValueError(f"duplicate lanes: {lanes}")
        self._geometry = geometry
        # Phase counters (Figure 8's three components): how often each
        # QSTR-MED stage ran.  None keeps the scheme observation-free.
        self._counters = registry
        if registry is not None:
            self._gather_reports = registry.counter("qstr_gather_reports")
            self._blocks_gathered = registry.counter("qstr_blocks_gathered")
            self._assemblies = registry.counter("qstr_assemblies")
            self._allocations = registry.counter("qstr_block_allocations")
        self._catalogs: Dict[int, BlockCatalog] = {
            lane: BlockCatalog(lane) for lane in lanes
        }
        self.candidate_depth = candidate_depth
        self._assembler = OnDemandAssembler(
            list(self._catalogs.values()), candidate_depth, chooser=chooser
        )
        self._gathering = GatheringUnit(geometry, self._on_block_gathered)
        # records gathered for in-use blocks, waiting for the block to free up
        self._pending: Dict[Tuple[int, int, int], BlockRecord] = {}
        # last known record of blocks currently in use (for re-listing when
        # a block frees before a fresh gather completed)
        self._in_use: Dict[Tuple[int, int, int], BlockRecord] = {}

    # -- catalog bootstrap -----------------------------------------------------

    def register_free_block(self, record: BlockRecord) -> None:
        """Add a free block's metadata (e.g. from a format-time burn-in)."""
        self._catalogs[record.lane].add(record)

    def catalog(self, lane: int) -> BlockCatalog:
        return self._catalogs[lane]

    @property
    def lanes(self) -> List[int]:
        return list(self._catalogs)

    def free_blocks(self, lane: int) -> int:
        return len(self._catalogs[lane])

    def min_free_blocks(self) -> int:
        return min(len(c) for c in self._catalogs.values())

    # -- assembly (on demand) ------------------------------------------------------

    def assemble_for(self, intent: WriteIntent) -> SuperblockChoice:
        """Assemble the superblock class this write's origin calls for."""
        return self.assemble(speed_class_for(intent))

    def assemble(self, speed_class: SpeedClass) -> SuperblockChoice:
        choice = self._assembler.assemble(speed_class)
        for record in choice.members:
            self._in_use[record.key()] = record
        if self._counters is not None:
            self._assemblies.inc()
        return choice

    @property
    def total_pair_checks(self) -> int:
        return self._assembler.total_pair_checks

    @property
    def assembled_count(self) -> int:
        return self._assembler.assembled_count

    # -- gathering hooks (wired to the FTL's program path) ----------------------------

    def note_block_allocated(self, lane: int, plane: int, block: int, pe_cycles: int) -> None:
        """A block starts being written: begin gathering its fresh metadata."""
        if not self._gathering.is_open(lane, plane, block):
            self._gathering.open_block(lane, plane, block, pe_cycles)
            if self._counters is not None:
                self._allocations.inc()

    def note_wordline_programmed(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> None:
        """Feed one word-line's measured program latency."""
        if self._counters is not None:
            self._gather_reports.inc()
        self._gathering.report(lane, plane, block, lwl, latency_us)

    def ingest_block_record(self, record: BlockRecord, reports: int) -> None:
        """Bulk-deliver a fully programmed block's gathered metadata.

        Equivalent to ``reports`` successive :meth:`note_wordline_programmed`
        calls that end with this record: the gather counter advances by
        ``reports`` and the record lands in the pending set via the normal
        completion callback.  The vector backend uses this at seal time
        after computing latency sums and eigen bits in bulk.
        """
        if self._counters is not None:
            self._gather_reports.inc(reports)
        self._gathering.complete_block(record)

    def _on_block_gathered(self, record: BlockRecord) -> None:
        if self._counters is not None:
            self._blocks_gathered.inc()
        self._pending[record.key()] = record

    def note_block_freed(self, lane: int, plane: int, block: int) -> None:
        """A block was erased and is free again: (re-)list it.

        Prefers the freshly gathered record; falls back to the last known
        one when the block was recycled before it finished programming.
        """
        key = (lane, plane, block)
        self._gathering.abandon_block(lane, plane, block)
        record = self._pending.pop(key, None)
        if record is None:
            record = self._in_use.pop(key, None)
        else:
            self._in_use.pop(key, None)
        if record is None:
            raise KeyError(f"block {key} was never registered with the scheme")
        self._catalogs[lane].add(record)

    def note_block_retired(self, lane: int, plane: int, block: int) -> None:
        """A block wore out: drop all metadata, never list it again."""
        key = (lane, plane, block)
        self._gathering.abandon_block(lane, plane, block)
        self._pending.pop(key, None)
        self._in_use.pop(key, None)

    def take_free_block(self, record: BlockRecord) -> None:
        """Remove one specific free block from its catalog and mark it in use.

        Used by superblock repair: the FTL drafted this record as a spare,
        so it leaves the free pool outside the normal assembly path.
        """
        self._catalogs[record.lane].remove(record)
        self._in_use[record.key()] = record

    def purge_plane(self, lane: int, plane: int) -> int:
        """Drop every free block of a dead plane; returns how many."""
        catalog = self._catalogs[lane]
        doomed = [record for record in catalog if record.plane == plane]
        for record in doomed:
            catalog.remove(record)
        return len(doomed)

    # -- footprint (Section VI-D1) ----------------------------------------------------

    def metadata_bytes(self) -> int:
        """Current catalog + staging footprint."""
        catalog_bytes = sum(c.metadata_bytes() for c in self._catalogs.values())
        pending_bytes = sum(r.metadata_bytes() for r in self._pending.values())
        in_use_bytes = sum(r.metadata_bytes() for r in self._in_use.values())
        return (
            catalog_bytes
            + pending_bytes
            + in_use_bytes
            + self._gathering.staging_bytes()
        )


class QstrMedAssembler(Assembler):
    """Offline adapter: run QSTR-MED over measured pools (Table V rows).

    ``demand`` optionally supplies the speed class of each successive
    superblock (default: all FAST, i.e. drain the catalogs head-first).
    """

    name = "qstr_med"

    def __init__(
        self,
        candidate_depth: int = 4,
        demand: Optional[Iterable[SpeedClass]] = None,
    ) -> None:
        self.candidate_depth = candidate_depth
        self._demand = list(demand) if demand is not None else None
        self.name = f"qstr_med({candidate_depth})"
        self.pair_checks = 0
        self.combinations_checked = 0

    def assemble(self, pools: Sequence[LanePool]) -> List[Superblock]:
        count = check_pools(pools)
        if self._demand is not None and len(self._demand) < count:
            raise ValueError(
                f"demand supplies {len(self._demand)} classes for {count} superblocks"
            )
        catalogs: List[BlockCatalog] = []
        by_key: Dict[Tuple[int, int, int], BlockMeasurement] = {}
        for pool in pools:
            catalog = BlockCatalog(pool.lane)
            for measurement in pool.blocks:
                unit = GatheringUnit(_measurement_geometry(measurement))
                record = unit.gather_measurement(
                    pool.lane,
                    measurement.plane,
                    measurement.block,
                    measurement.wl_latencies_us,
                    measurement.pe_cycles,
                )
                catalog.add(record)
                by_key[record.key()] = measurement
            catalogs.append(catalog)

        assembler = OnDemandAssembler(catalogs, self.candidate_depth)
        lanes = tuple(pool.lane for pool in pools)
        result: List[Superblock] = []
        for index in range(count):
            speed = (
                self._demand[index] if self._demand is not None else SpeedClass.FAST
            )
            choice = assembler.assemble(speed)
            members = tuple(
                by_key[choice.member_for_lane(lane).key()] for lane in lanes
            )
            result.append(Superblock(members=members, lanes=lanes))
        self.pair_checks = assembler.total_pair_checks
        self.combinations_checked = assembler.assembled_count
        return result


def _measurement_geometry(measurement: BlockMeasurement) -> NandGeometry:
    """A geometry stub matching a measurement's word-line matrix shape."""
    return NandGeometry(
        planes_per_chip=max(1, measurement.plane + 1),
        blocks_per_plane=max(1, measurement.block + 1),
        layers_per_block=measurement.layers,
        strings_per_layer=measurement.strings,
    )
