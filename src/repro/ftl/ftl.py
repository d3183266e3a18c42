"""The page-mapping FTL with superblock striping and PV-aware allocation.

Data path: host/GC page writes coalesce in the write buffer until one super
word-line's worth is ready, then a multi-plane-style program fires across
all lanes — its completion is the *slowest* member word-line, its extra
latency the max-min gap the paper optimizes.  Blocks come from a pluggable
allocator (QSTR-MED or a baseline), garbage collection relocates valid pages
into slow superblocks (function-based placement, Section V-D), and every
measured latency is reported back to the allocator so QSTR-MED's catalogs
refresh at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.assembler import SpeedClass
from repro.core.gathering import GatheringUnit
from repro.core.placement import (
    WriteIntent,
    WriteSource,
    prefers_fast_superpage,
    speed_class_for,
)
from repro.core.superpage import SuperpagePredictor
from repro.core.records import BlockRecord
from repro.ftl.allocator import AllocationError, BlockAllocator, make_allocator
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import PageMapper, PhysicalSlot
from repro.ftl.metrics import FtlMetrics
from repro.ftl.superblock import ManagedSuperblock, SlotLocation, SuperblockTable
from repro.ftl.wear_leveling import WearLeveler
from repro.ftl.writebuffer import BufferedPage, WriteBuffer, WriteStream
from repro.nand.chip import FlashChip
from repro.nand.errors import EnduranceExceededError, UncorrectableReadError
from repro.nand.geometry import PageType
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.perf.profiler import profiled
from repro.policy.base import AllocationContext, GcCandidate, GcVictimContext
from repro.policy.resolve import ResolvedPolicies, resolve_policies
from repro.utils.rng import derive_seed


class OutOfSpaceError(Exception):
    """No free blocks left and garbage collection cannot reclaim any."""


class IntegrityError(Exception):
    """A read returned a payload that does not match its logical page."""


class RepairExhaustedError(Exception):
    """Superblock repair gave up: every drafted spare kept failing."""


@dataclass(frozen=True)
class FlushReport:
    """Outcome of programming one super word-line.

    ``lane_latencies_us`` holds each member's own program latency in lane
    order; ``slowest_lane_index``/``fastest_lane_index`` name the members
    whose gap is the extra latency the paper studies.  ``repair_us`` (lane
    order, empty when nothing failed) is the extra time a lane spent
    retiring a failed member and copying survivors onto a drafted spare
    before this super word-line could complete.
    """

    superblock_id: int
    lwl: int
    pages: int
    completion_us: float
    extra_us: float
    speed_class: SpeedClass
    lane_latencies_us: Tuple[float, ...] = ()
    repairs: int = 0
    repair_us: Tuple[float, ...] = ()

    @property
    def slowest_lane_index(self) -> int:
        """Lane index of the member that bounded this MP command."""
        latencies = self.lane_latencies_us
        return max(range(len(latencies)), key=lambda i: latencies[i])

    @property
    def fastest_lane_index(self) -> int:
        latencies = self.lane_latencies_us
        return min(range(len(latencies)), key=lambda i: latencies[i])


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a page read."""

    lpn: int
    located: bool
    latency_us: float
    buffer_hit: bool = False
    #: the superblock member whose chip sensed the page (``None`` when no
    #: flash read happened: an unmapped page or a write-buffer hit)
    member: Optional[BlockRecord] = None


class Ftl:
    """Superblock FTL over a set of flash chips (one lane per chip)."""

    def __init__(
        self,
        chips: Sequence[FlashChip],
        config: FtlConfig = FtlConfig(),
        allocator_kind: str = "qstr",
        seed: int = 0,
        tracer: NullTracer = NULL_TRACER,
        registry: Optional[MetricsRegistry] = None,
        policies: Optional[ResolvedPolicies] = None,
    ) -> None:
        if len(chips) < 2:
            raise ValueError("need at least two chips (lanes)")
        self.geometry = chips[0].geometry
        for chip in chips[1:]:
            if chip.geometry != self.geometry:
                raise ValueError("all chips must share one geometry")
        if config.usable_blocks_per_plane > self.geometry.blocks_per_plane:
            raise ValueError("usable_blocks_per_plane exceeds the chip geometry")
        if config.planes_used > self.geometry.planes_per_chip:
            raise ValueError("planes_used exceeds the chip geometry")

        self.config = config
        self.tracer = tracer
        self.registry = registry
        self.chips: Dict[int, FlashChip] = {lane: chip for lane, chip in enumerate(chips)}
        self.lanes = list(self.chips)
        # Every tuning decision (assembly, stream routing, GC victim, wear
        # victim, repair drafting) routes through one resolved policy set;
        # None resolves the static defaults, which replicate the historical
        # hard-coded behavior bit for bit.
        self.policies: ResolvedPolicies = (
            policies
            if policies is not None
            else resolve_policies(seed=seed)
        )
        self.allocator: BlockAllocator = make_allocator(
            allocator_kind,
            self.geometry,
            self.lanes,
            candidate_depth=config.candidate_depth,
            seed=seed,
            registry=registry,
            assembly_policy=self.policies.assembly,
        )
        self.allocator_kind = allocator_kind

        if config.parity_protection and len(self.lanes) < 3:
            raise ValueError("parity protection needs at least three lanes")
        data_lanes = len(self.lanes) - (1 if config.parity_protection else 0)
        pages_per_block = self.geometry.pages_per_block
        physical_pages = (
            data_lanes
            * config.planes_used
            * config.usable_blocks_per_plane
            * pages_per_block
        )
        self.logical_pages = int(physical_pages * (1.0 - config.overprovision_ratio))
        self.mapper = PageMapper(self.logical_pages)
        self.table = SuperblockTable(self.geometry)
        superwl_pages = data_lanes * self.geometry.bits_per_cell
        self.buffer = WriteBuffer(superwl_pages)
        self.metrics = FtlMetrics()
        self._formatted = False
        self._in_gc = False
        self._in_wear_rotation = False
        # Spare drafting for the random repair policy; draws nothing unless
        # a member actually fails, so fault-free runs are unaffected.
        self._repair_rng = np.random.default_rng(derive_seed(seed, "ftl", "repair"))
        self._dead_planes: Set[Tuple[int, int]] = set()
        self.predictor: Optional[SuperpagePredictor] = (
            SuperpagePredictor(self.geometry, self.lanes)
            if config.superpage_steering
            else None
        )
        self._fast_pair: List[int] = []
        self.wear_leveler: Optional[WearLeveler] = None
        if config.wear_leveling is not None:
            usable = [
                (lane, plane, block)
                for lane in self.lanes
                for plane in range(config.planes_used)
                for block in range(config.usable_blocks_per_plane)
            ]
            self.wear_leveler = WearLeveler(self.chips, usable, config.wear_leveling)

    # -- format / bootstrap ------------------------------------------------------

    def format(self) -> None:
        """Burn-in pass: gather every usable block's metadata, list it free.

        Each block is erased, fully programmed once in one whole-block call
        (:meth:`~repro.nand.chip.FlashChip.program_block`, gathered in one
        pass), and erased again so it is ready for allocation: two P/E
        cycles per block.
        A block whose erase or program reports FAIL, or that wears out, is
        left out of service.
        """
        if self._formatted:
            raise RuntimeError("already formatted")
        gatherer = GatheringUnit(self.geometry)
        shape = (self.geometry.layers_per_block, self.geometry.strings_per_layer)
        for lane, chip in self.chips.items():
            for plane in range(self.config.planes_used):
                for block in range(self.config.usable_blocks_per_plane):
                    if chip.is_bad(plane, block):
                        continue
                    try:
                        if not chip.erase_block(plane, block).ok:
                            # injected erase failure: the block is grown-bad
                            # before it ever entered service
                            continue
                        pe_cycles = chip.pe_cycles(plane, block)
                        programmed = chip.program_block(plane, block)
                        if not programmed.ok or not chip.erase_block(plane, block).ok:
                            continue
                    except EnduranceExceededError:
                        continue
                    latencies = programmed.latencies_us.reshape(shape)
                    record = gatherer.gather_measurement(
                        lane, plane, block, latencies, pe_cycles
                    )
                    self.allocator.register_free(record)
                    if self.predictor is not None:
                        # warm-start the superpage predictor from the burn-in
                        self.predictor.observe_record(record, latencies)
        self._formatted = True

    def _require_format(self) -> None:
        if not self._formatted:
            raise RuntimeError("call format() first")

    # -- write path -------------------------------------------------------------------

    def _stream_for(self, intent: WriteIntent) -> WriteStream:
        decision = self.policies.allocation.place(
            AllocationContext(
                intent=intent,
                base_class=speed_class_for(intent),
                prefers_fast=prefers_fast_superpage(intent),
                steering_enabled=self.config.superpage_steering,
                predictor_ready=self.predictor is not None
                and self.predictor.ready(),
            )
        )
        if decision.speed_class is SpeedClass.SLOW:
            return WriteStream.SLOW
        if decision.express is None:
            return WriteStream.FAST
        return WriteStream.FAST_EXPRESS if decision.express else WriteStream.FAST_BULK

    @profiled("ftl.write")
    def write(
        self,
        lpn: int,
        source: WriteSource = WriteSource.HOST,
        intent: Optional[WriteIntent] = None,
    ) -> List[FlushReport]:
        """Queue one page write; returns the flushes it triggered (may be []).

        ``intent`` carries the request shape (page count, sequentiality) the
        superpage-steering mode uses; it defaults to a bare single-page
        intent of the given source.
        """
        self._require_format()
        self.mapper.check_lpn(lpn)
        if intent is None:
            intent = WriteIntent(source=source)
        elif intent.source is not source:
            raise ValueError("intent.source must match source")
        stream = self._stream_for(intent)
        # Coalesce: an lpn rewritten while still buffered keeps only the
        # newest copy, like a real DRAM write buffer.
        self.buffer.drop_lpn(lpn)
        self.buffer.push(
            stream,
            BufferedPage(lpn=lpn, source=source, enqueued_us=self.tracer.now_us),
        )
        reports: List[FlushReport] = []
        while self.buffer.has_full_superwl(stream):
            reports.append(self._flush_superwl(stream))
        if source is not WriteSource.GC:
            self._maybe_collect()
        return reports

    def flush(self) -> List[FlushReport]:
        """Drain all buffered pages (padding final partial super word-lines)."""
        self._require_format()
        reports: List[FlushReport] = []
        for stream in list(WriteStream):
            while self.buffer.pending(stream):
                reports.append(self._flush_superwl(stream, allow_partial=True))
        self._maybe_collect()
        return reports

    @profiled("ftl.allocate")
    def _allocate_superblock(self, speed_class: SpeedClass) -> ManagedSuperblock:
        try:
            members = self.allocator.allocate(speed_class)
        except AllocationError as error:
            raise OutOfSpaceError(str(error)) from error
        sb = self.table.create(speed_class, members, self.config.parity_protection)
        for record in members:
            chip = self.chips[record.lane]
            self.allocator.on_block_allocated(
                record.lane,
                record.plane,
                record.block,
                chip.pe_cycles(record.plane, record.block),
            )
        self.metrics.superblocks_opened += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "superblock_allocate",
                "ftl.allocate",
                track="ftl",
                superblock=sb.sb_id,
                speed_class=speed_class.name.lower(),
                members=[
                    {"chip": r.lane, "plane": r.plane, "block": r.block}
                    for r in members
                ],
            )
        return sb

    def _open_superblock(self, speed_class: SpeedClass) -> ManagedSuperblock:
        sb = self.table.open_superblock(speed_class)
        if sb is not None and not sb.is_full:
            return sb
        sb = self._allocate_superblock(speed_class)
        self.table.set_open(speed_class, sb)
        return sb

    def _open_steered_pair(self) -> List[ManagedSuperblock]:
        """The two open fast superblocks the express/bulk streams share."""
        self._fast_pair = [
            sb_id
            for sb_id in self._fast_pair
            if sb_id in {sb.sb_id for sb in self.table} and not self.table.get(sb_id).is_full
        ]
        while len(self._fast_pair) < 2:
            self._fast_pair.append(self._allocate_superblock(SpeedClass.FAST).sb_id)
        return [self.table.get(sb_id) for sb_id in self._fast_pair]

    def _pick_steered_superblock(self, stream: WriteStream) -> ManagedSuperblock:
        """Express takes the faster predicted next super word-line; bulk the other."""
        pair = self._open_steered_pair()
        assert self.predictor is not None
        per_swl = pair[0].pages_per_superwl
        predictions = [
            self.predictor.predict_superwl(sb.members, sb.next_slot // per_swl)
            for sb in pair
        ]
        express_index = int(predictions[0] > predictions[1])
        if stream is WriteStream.FAST_EXPRESS:
            return pair[express_index]
        return pair[1 - express_index]

    def _superblock_for(self, stream: WriteStream) -> ManagedSuperblock:
        if stream.steered:
            return self._pick_steered_superblock(stream)
        return self._open_superblock(stream.speed_class)

    @profiled("ftl.flush")
    def _flush_superwl(
        self, stream: WriteStream, allow_partial: bool = False
    ) -> FlushReport:
        speed_class = stream.speed_class
        sb = self._superblock_for(stream)
        batch = self.buffer.pop_superwl(stream, allow_partial)
        slots = sb.claim_slots(sb.pages_per_superwl)
        lwl = sb.slot_location(slots[0]).lwl

        # Assign buffered pages to slots in order; trailing slots stay unmapped.
        payload_by_lane: Dict[int, Dict] = {i: {} for i in range(sb.lane_count)}
        for page, slot in zip(batch, slots):
            location = sb.slot_location(slot)
            self.mapper.map_page(page.lpn, PhysicalSlot(sb.sb_id, slot))
            payload_by_lane[location.lane_index][location.page_type] = page.lpn
        if sb.parity:
            # RAID-4 row parity: the parity page of each page type records
            # the whole data row, enough to rebuild any single lane.
            parity_index = sb.parity_lane_index
            for page_type in self.geometry.page_types:
                row = tuple(
                    payload_by_lane[i].get(page_type)
                    for i in range(sb.data_lane_count)
                )
                payload_by_lane[parity_index][page_type] = ("PARITY", row)

        latencies: List[float] = []
        repair_us: List[float] = [0.0] * sb.lane_count
        repairs_before = sb.repairs
        for lane_index in range(sb.lane_count):
            record = sb.members[lane_index]
            chip = self.chips[record.lane]
            result = chip.program_wordline(
                record.plane, record.block, lwl, payload_by_lane[lane_index]
            )
            attempts = 0
            while not result.ok:
                # Program-status failure: retire the member, repair the
                # superblock with a drafted spare, and retry this super
                # word-line's program on the fresh block.
                self.metrics.program_failures += 1
                self._note_fault("program_fail", record, lwl)
                attempts += 1
                if attempts > self.config.max_repair_attempts:
                    raise RepairExhaustedError(
                        f"superblock {sb.sb_id} lane {lane_index}: program "
                        f"still failing after {attempts - 1} repairs"
                    )
                repair_us[lane_index] += self._repair_member(sb, lane_index, lwl)
                record = sb.members[lane_index]
                chip = self.chips[record.lane]
                result = chip.program_wordline(
                    record.plane, record.block, lwl, payload_by_lane[lane_index]
                )
            latencies.append(result.latency_us)
            self.allocator.on_wordline_programmed(
                record.lane, record.plane, record.block, lwl, result.latency_us
            )
            if self.predictor is not None:
                self.predictor.observe(
                    record.lane, lwl, result.latency_us, record.eigen[lwl]
                )
        completion = max(latencies)
        extra = completion - min(latencies)
        swl_repairs = sb.repairs - repairs_before
        if sb.repairs:
            # Extra latency of every super word-line on a repaired
            # superblock — the degradation the repair policy controls.
            self.metrics.post_repair_extra_us.add(extra)

        host_pages = sum(1 for page in batch if page.source is not WriteSource.GC)
        gc_pages = len(batch) - host_pages
        self.metrics.host_pages_written += host_pages
        self.metrics.gc_pages_written += gc_pages
        if host_pages:
            self.metrics.host_write_us.add(completion)
        else:
            self.metrics.gc_write_us.add(completion)
        self.metrics.extra_program_us.add(extra)
        self.metrics.record_stream_write(stream.value, completion)
        # learned allocation policies score their routing on the measured
        # completion; the static policy's hook is a no-op
        self.policies.allocation.observe_flush(stream.value, completion, host_pages)

        if self.tracer.enabled:
            self._trace_flush(sb, stream, lwl, batch, latencies, completion, extra)

        if sb.is_full:
            sb.seal()
            if stream.steered:
                self._fast_pair = [
                    sb_id for sb_id in self._fast_pair if sb_id != sb.sb_id
                ]
            else:
                self.table.set_open(speed_class, None)
        return FlushReport(
            superblock_id=sb.sb_id,
            lwl=lwl,
            pages=len(batch),
            completion_us=completion,
            extra_us=extra,
            speed_class=speed_class,
            lane_latencies_us=tuple(latencies),
            repairs=swl_repairs,
            repair_us=tuple(repair_us) if swl_repairs else (),
        )

    def _trace_flush(
        self,
        sb: ManagedSuperblock,
        stream: WriteStream,
        lwl: int,
        batch: List[BufferedPage],
        latencies: List[float],
        completion: float,
        extra: float,
    ) -> None:
        """Emit the MP-program span and its extra-latency attribution event.

        Pure observation: reads the already-computed latencies and member
        identities, draws nothing, changes nothing.
        """
        now = self.tracer.now_us
        slowest_index = max(range(len(latencies)), key=lambda i: latencies[i])
        fastest_index = min(range(len(latencies)), key=lambda i: latencies[i])
        slowest = sb.members[slowest_index]
        fastest = sb.members[fastest_index]
        waits = [now - page.enqueued_us for page in batch]
        self.tracer.complete(
            "superpage_program",
            "ftl.program",
            now,
            completion,
            track="ftl",
            superblock=sb.sb_id,
            lwl=lwl,
            stream=stream.value,
            pages=len(batch),
            buffer_wait_mean_us=sum(waits) / len(waits),
            buffer_wait_max_us=max(waits),
        )
        self.tracer.instant(
            "mp_program",
            "ftl.attribution",
            ts_us=now,
            track="ftl",
            superblock=sb.sb_id,
            lwl=lwl,
            speed_class=stream.speed_class.name.lower(),
            completion_us=completion,
            extra_us=extra,
            slowest={
                "chip": slowest.lane,
                "plane": slowest.plane,
                "block": slowest.block,
                "lwl": lwl,
            },
            fastest={
                "chip": fastest.lane,
                "plane": fastest.plane,
                "block": fastest.block,
            },
            lane_latencies_us=[round(value, 3) for value in latencies],
        )

    # -- fault handling / superblock repair ------------------------------------------------

    def _note_fault(
        self, kind: str, record: BlockRecord, lwl: Optional[int] = None
    ) -> None:
        """Record an observed media fault; degrade if its plane went dark."""
        if self.tracer.enabled:
            self.tracer.instant(
                "fault_injected",
                "ftl.fault",
                track="ftl",
                kind=kind,
                chip=record.lane,
                plane=record.plane,
                block=record.block,
                lwl=lwl,
            )
        chip = self.chips[record.lane]
        key = (record.lane, record.plane)
        if chip.injector.plane_dead(record.plane) and key not in self._dead_planes:
            # Whole-plane outage: stop handing out the plane's free blocks
            # so repair never drafts a spare that is guaranteed to fail.
            self._dead_planes.add(key)
            purged = self.allocator.purge_plane(record.lane, record.plane)
            self.metrics.plane_purges += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "degraded_mode",
                    "ftl.fault",
                    track="ftl",
                    reason="plane_outage",
                    chip=record.lane,
                    plane=record.plane,
                    purged_free_blocks=purged,
                )

    def _repair_member(
        self, sb: ManagedSuperblock, lane_index: int, upto_lwl: int
    ) -> float:
        """Swap a failed member for a drafted spare; returns the µs charged.

        The failed block is retired (grown bad), a spare is drafted from
        the same lane under the resolved repair policy, the already-programmed
        word-lines ``0..upto_lwl-1`` are copied onto it (the failed block
        stays readable, with parity as the fallback), and the superblock's
        member table is patched in place so slot geometry never changes.
        """
        failed = sb.members[lane_index]
        failed_chip = self.chips[failed.lane]
        failed_chip.retire_block(failed.plane, failed.block)
        self.allocator.on_block_retired(failed.lane, failed.plane, failed.block)
        self.metrics.blocks_retired += 1
        survivors = [
            sb.members[i] for i in range(sb.lane_count) if i != lane_index
        ]
        total_us = 0.0
        for _ in range(self.config.max_repair_attempts):
            try:
                spare = self.allocator.draft_spare(
                    failed.lane,
                    sb.speed_class,
                    survivors,
                    self.policies.repair,
                    self._repair_rng,
                )
            except AllocationError as error:
                raise OutOfSpaceError(str(error)) from error
            spare_chip = self.chips[spare.lane]
            self.allocator.on_block_allocated(
                spare.lane,
                spare.plane,
                spare.block,
                spare_chip.pe_cycles(spare.plane, spare.block),
            )
            copied, copy_us = self._copy_back(sb, lane_index, failed, spare, upto_lwl)
            total_us += copy_us
            if not copied:
                # The spare itself failed while being filled: retire it and
                # draft another (bounded by max_repair_attempts).
                self.metrics.program_failures += 1
                self._note_fault("program_fail", spare)
                spare_chip.retire_block(spare.plane, spare.block)
                self.allocator.on_block_retired(spare.lane, spare.plane, spare.block)
                self.metrics.blocks_retired += 1
                continue
            sb.replace_member(lane_index, spare)
            self.metrics.sb_repairs += 1
            self.metrics.repair_copy_us.add(copy_us)
            if self.tracer.enabled:
                self.tracer.instant(
                    "sb_repaired",
                    "ftl.fault",
                    track="ftl",
                    superblock=sb.sb_id,
                    lane_index=lane_index,
                    policy=self.policies.repair.short_name,
                    failed={
                        "chip": failed.lane,
                        "plane": failed.plane,
                        "block": failed.block,
                    },
                    spare={
                        "chip": spare.lane,
                        "plane": spare.plane,
                        "block": spare.block,
                    },
                    copied_lwls=upto_lwl,
                    copy_us=round(copy_us, 3),
                )
            return total_us
        raise RepairExhaustedError(
            f"superblock {sb.sb_id} lane {lane_index}: no usable spare after "
            f"{self.config.max_repair_attempts} attempts"
        )

    def _copy_back(
        self,
        sb: ManagedSuperblock,
        lane_index: int,
        failed: BlockRecord,
        spare: BlockRecord,
        upto_lwl: int,
    ) -> Tuple[bool, float]:
        """Copy word-lines ``0..upto_lwl-1`` of the failed member to the spare.

        Returns ``(completed, µs)``.  Word-lines program in ascending order
        so the spare ends ready to take the retried super word-line at
        ``upto_lwl``.  Unreadable pages of a data lane fall back to parity
        reconstruction; a failed parity lane is rebuilt from the data rows.
        """
        spare_chip = self.chips[spare.lane]
        total_us = 0.0
        is_parity_lane = sb.parity and lane_index == sb.parity_lane_index
        per_swl = sb.pages_per_superwl
        for lwl in range(upto_lwl):
            data: Dict[PageType, object] = {}
            for page_index, page_type in enumerate(self.geometry.page_types):
                if is_parity_lane:
                    payload, read_us = self._read_or_rebuild_parity(
                        sb, failed, lwl, page_type
                    )
                else:
                    # sb.members[lane_index] is still the failed block here
                    payload, read_us = self._read_physical(
                        sb,
                        SlotLocation(lane_index=lane_index, lwl=lwl, page_type=page_type),
                        lwl * per_swl + page_index * sb.data_lane_count + lane_index,
                    )
                total_us += read_us
                if payload is not None:
                    data[page_type] = payload
            result = spare_chip.program_wordline(spare.plane, spare.block, lwl, data)
            total_us += result.latency_us
            if not result.ok:
                return False, total_us
            self.allocator.on_wordline_programmed(
                spare.lane, spare.plane, spare.block, lwl, result.latency_us
            )
            if self.predictor is not None:
                self.predictor.observe(
                    spare.lane, lwl, result.latency_us, spare.eigen[lwl]
                )
        return True, total_us

    def _read_or_rebuild_parity(
        self, sb: ManagedSuperblock, failed: BlockRecord, lwl: int, page_type: PageType
    ) -> Tuple[object, float]:
        """Read one parity page off a retired member, or rebuild its row."""
        chip = self.chips[failed.lane]
        try:
            result, payload = chip.read_page(failed.plane, failed.block, lwl, page_type)
            return payload, result.latency_us
        except UncorrectableReadError as error:
            # Re-derive the row from the data lanes (reads run in parallel
            # across chips, so their cost is the maximum).
            latencies = []
            row = []
            for index in range(sb.data_lane_count):
                peer = sb.members[index]
                peer_chip = self.chips[peer.lane]
                peer_result, peer_payload = peer_chip.read_page(
                    peer.plane, peer.block, lwl, page_type
                )
                latencies.append(peer_result.latency_us)
                row.append(peer_payload)
            return ("PARITY", tuple(row)), error.latency_us + max(latencies)

    # -- read path -----------------------------------------------------------------------

    @profiled("ftl.read")
    def read(self, lpn: int) -> ReadResult:
        """Read one page; verifies stored payload integrity.

        With parity protection on, an uncorrectable page read degrades to a
        row reconstruction instead of failing.
        """
        self._require_format()
        self.mapper.check_lpn(lpn)
        if lpn in self.buffer.buffered_lpns():
            return ReadResult(lpn=lpn, located=True, latency_us=0.0, buffer_hit=True)
        location = self.mapper.lookup(lpn)
        if location is None:
            self.metrics.unmapped_reads += 1
            return ReadResult(lpn=lpn, located=False, latency_us=0.0)
        sb = self.table.get(location.superblock_id)
        slot = sb.slot_location(location.slot)
        payload, latency = self._read_physical(sb, slot, location.slot)
        if payload != lpn:
            raise IntegrityError(
                f"lpn {lpn} at sb{sb.sb_id}/slot{location.slot} returned {payload!r}"
            )
        self.metrics.pages_read += 1
        self.metrics.host_read_us.add(latency)
        return ReadResult(
            lpn=lpn, located=True, latency_us=latency, member=sb.members[slot.lane_index]
        )

    def _read_physical(
        self, sb: ManagedSuperblock, slot: SlotLocation, slot_index: int
    ) -> Tuple[object, float]:
        """Read one data page, reconstructing from parity if ECC gives up."""
        record = sb.members[slot.lane_index]
        chip = self.chips[record.lane]
        try:
            result, payload = chip.read_page(
                record.plane, record.block, slot.lwl, slot.page_type
            )
            return payload, result.latency_us
        except UncorrectableReadError as error:
            if not sb.parity:
                raise
            return self._reconstruct(sb, slot, slot_index, wasted_us=error.latency_us)

    def _reconstruct(
        self,
        sb: ManagedSuperblock,
        slot: SlotLocation,
        slot_index: int,
        wasted_us: float = 0.0,
    ) -> Tuple[object, float]:
        """RAID-4 degraded read: rebuild one lane's page from the parity row.

        Charges the failed attempt (``wasted_us``) plus the parity page and
        every surviving data lane (those reads proceed in parallel across
        chips, so their cost is the maximum).
        """
        parity_record = sb.members[sb.parity_lane_index]
        parity_chip = self.chips[parity_record.lane]
        latencies = []
        try:
            result, parity_payload = parity_chip.read_page(
                parity_record.plane, parity_record.block, slot.lwl, slot.page_type
            )
        except UncorrectableReadError as error:
            raise IntegrityError(
                f"double failure: data and parity unreadable at "
                f"sb{sb.sb_id}/slot{slot_index}"
            ) from error
        latencies.append(result.latency_us)
        if not (isinstance(parity_payload, tuple) and parity_payload[0] == "PARITY"):
            raise IntegrityError(
                f"parity page at sb{sb.sb_id}/wl{slot.lwl} holds {parity_payload!r}"
            )
        # Touch the surviving data lanes (their content feeds the XOR on a
        # real drive; here the row snapshot already carries the answer).
        for index in range(sb.data_lane_count):
            if index == slot.lane_index:
                continue
            peer = sb.members[index]
            peer_chip = self.chips[peer.lane]
            try:
                peer_result, _ = peer_chip.read_page(
                    peer.plane, peer.block, slot.lwl, slot.page_type
                )
                latencies.append(peer_result.latency_us)
            except UncorrectableReadError as error:
                raise IntegrityError(
                    f"double failure during reconstruction at sb{sb.sb_id}"
                ) from error
        self.metrics.parity_reconstructions += 1
        value = parity_payload[1][slot.lane_index]
        return value, wasted_us + max(latencies)

    def trim(self, lpn: int) -> None:
        """Invalidate a logical page."""
        self._require_format()
        self.buffer.drop_lpn(lpn)
        self.mapper.unmap_page(lpn)

    # -- garbage collection --------------------------------------------------------------

    def _maybe_collect(self) -> None:
        if self._in_gc:
            return
        self._in_gc = True
        # Stall guard: on a device provisioned so tightly that the high
        # watermark is unreachable, GC must not spin forever making ~zero
        # net progress — give up after a few non-improving rounds and let
        # the write path proceed (or hit OutOfSpaceError honestly).
        stalled = 0
        best_free = self.allocator.min_free()
        try:
            while self.allocator.min_free() < self.config.gc_low_watermark:
                if not self._collect_once():
                    break
                current = self.allocator.min_free()
                if current > best_free:
                    best_free = current
                    stalled = 0
                else:
                    stalled += 1
                    if stalled >= 4:
                        break
                if current >= self.config.gc_high_watermark:
                    break
        finally:
            self._in_gc = False

    def _pick_victim(self) -> Optional[ManagedSuperblock]:
        # A fully-valid victim reclaims nothing: relocating it consumes as
        # many pages as the erase frees, so GC would thrash forever.
        candidates = tuple(
            GcCandidate(
                sb_id=sb.sb_id,
                valid_pages=self.mapper.valid_count(sb.sb_id),
                capacity_pages=sb.capacity_pages,
            )
            for sb in self.table.sealed()
            if self.mapper.valid_count(sb.sb_id) < sb.capacity_pages
        )
        victim_id = self.policies.gc_victim.pick(GcVictimContext(candidates))
        if victim_id is None:
            return None
        return self.table.get(victim_id)

    @profiled("ftl.gc")
    def _collect_once(self) -> bool:
        """Relocate one victim superblock's valid pages and erase it."""
        victim = self._pick_victim()
        if victim is None:
            return False
        self.metrics.gc_runs += 1
        self._reclaim(victim)
        return True

    def _reclaim(self, victim: ManagedSuperblock) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "gc_reclaim",
                "ftl.gc",
                track="ftl",
                superblock=victim.sb_id,
                valid_pages=self.mapper.valid_count(victim.sb_id),
                wear_rotation=self._in_wear_rotation,
            )
        # Relocate valid pages into the GC stream and drain it fully,
        # so no mapping still points into the victim when it is erased.
        gc_class = speed_class_for(WriteIntent(source=WriteSource.GC))
        gc_stream = WriteStream.SLOW if gc_class is SpeedClass.SLOW else WriteStream.FAST
        for slot, lpn in self.mapper.valid_slots(victim.sb_id, victim.capacity_pages):
            location = victim.slot_location(slot)
            payload, latency = self._read_physical(victim, location, slot)
            if payload != lpn:
                raise IntegrityError(
                    f"GC read of lpn {lpn} returned {payload!r} "
                    f"(sb{victim.sb_id}/slot{slot})"
                )
            self.metrics.gc_read_us.add(latency)
            self.buffer.push(
                gc_stream,
                BufferedPage(
                    lpn=lpn,
                    source=WriteSource.GC,
                    enqueued_us=self.tracer.now_us,
                ),
            )
            while self.buffer.has_full_superwl(gc_stream):
                self._flush_superwl(gc_stream)
        while self.buffer.pending(gc_stream):
            self._flush_superwl(gc_stream, allow_partial=True)

        # Erase every member; completion is the slowest erase (MP semantics).
        latencies: List[float] = []
        survivors: List[BlockRecord] = []
        lost: List[BlockRecord] = []
        for record in victim.members:
            chip = self.chips[record.lane]
            try:
                result = chip.erase_block(record.plane, record.block)
            except EnduranceExceededError:
                self.allocator.on_block_retired(record.lane, record.plane, record.block)
                self.metrics.blocks_retired += 1
                lost.append(record)
                continue
            if not result.ok:
                # Injected erase-status failure (or a dead plane): the
                # member is grown-bad and leaves the pool like a worn-out
                # block would.
                self.metrics.erase_failures += 1
                self._note_fault("erase_fail", record)
                chip.retire_block(record.plane, record.block)
                self.allocator.on_block_retired(record.lane, record.plane, record.block)
                self.metrics.blocks_retired += 1
                lost.append(record)
                continue
            latencies.append(result.latency_us)
            survivors.append(record)
        if lost:
            # The superblock is being dismantled anyway, but the lane pool
            # shrank permanently: account for it instead of dropping the
            # members silently.
            self.metrics.superblocks_degraded += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "degraded_mode",
                    "ftl.fault",
                    track="ftl",
                    reason="member_lost_on_erase",
                    superblock=victim.sb_id,
                    lost=[
                        {"chip": r.lane, "plane": r.plane, "block": r.block}
                        for r in lost
                    ],
                    surviving_members=len(survivors),
                )
        if latencies:
            self.metrics.erase_us.add(max(latencies))
            if len(latencies) > 1:
                self.metrics.extra_erase_us.add(max(latencies) - min(latencies))
            if self.tracer.enabled:
                slowest_index = max(
                    range(len(latencies)), key=lambda i: latencies[i]
                )
                slowest = survivors[slowest_index]
                self.tracer.instant(
                    "mp_erase",
                    "ftl.attribution",
                    track="ftl",
                    superblock=victim.sb_id,
                    completion_us=max(latencies),
                    extra_us=max(latencies) - min(latencies),
                    slowest={
                        "chip": slowest.lane,
                        "plane": slowest.plane,
                        "block": slowest.block,
                    },
                    lane_latencies_us=[round(value, 3) for value in latencies],
                )
        for record in survivors:
            self.allocator.on_block_freed(record.lane, record.plane, record.block)

        self.mapper.drop_superblock(victim.sb_id)
        victim.mark_erased()
        self.table.forget(victim.sb_id)
        self.metrics.superblocks_erased += 1
        self._maybe_wear_level()

    # -- wear leveling ---------------------------------------------------------------------

    def _maybe_wear_level(self) -> None:
        """Rotate the coldest sealed superblock when wear spread grows."""
        leveler = self.wear_leveler
        if leveler is None or self._in_wear_rotation:
            return
        if not leveler.note_erase():
            return
        if not leveler.gap_exceeded():
            return
        candidates = (
            (
                sb.sb_id,
                [(r.lane, r.plane, r.block) for r in sb.members],
            )
            for sb in self.table.sealed()
        )
        victim_id = leveler.nominate(candidates, self.policies.wear)
        if victim_id is None:
            return
        # The rotation needs at least one free block per lane to relocate into.
        if self.allocator.min_free() < 1:
            return
        self._in_wear_rotation = True
        try:
            self._reclaim(self.table.get(victim_id))
        finally:
            self._in_wear_rotation = False

    # -- introspection ----------------------------------------------------------------------

    def free_block_counts(self) -> Dict[int, int]:
        return {lane: self.allocator.free_count(lane) for lane in self.lanes}

    def utilization(self) -> float:
        """Fraction of the logical space currently mapped."""
        return self.mapper.mapped_pages / self.logical_pages
