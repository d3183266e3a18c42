"""The vector backend's FTL/SSD: batched hot paths, byte-identical outputs.

:class:`VectorFtl`/:class:`VectorSsd` subclass the scalar reference and
replace the two dominant costs of a fault-free device run after format —
the per-page write path and super-word-line flushing — with
struct-of-arrays kernels from :mod:`repro.kernels`.  Format-time burn-in
needs no override: the one FTL already programs and gathers each block in
one call (:meth:`~repro.nand.chip.FlashChip.program_block`,
:meth:`~repro.core.gathering.GatheringUnit.gather_measurement`) under
every configuration.  The equivalence contract (DESIGN.md §13) is
*exact*: every mapped page, chip state transition, metric sample, RNG
draw and trace event matches the scalar backend bit for bit, which the
differential and end-to-end identity tests pin down.

How the fast write path stays identical:

* Per-super-word-line latencies come from the same cached
  ``block_program_latencies`` matrices the scalar ``program_wordline``
  indexes, stacked once per superblock; completion/extra/argmax rows are
  precomputed with :func:`~repro.kernels.variation.superwl_stats` semantics.
* Gathering is *deferred*: instead of feeding every word-line's latency to
  the QSTR-MED gatherer, the block totals (a strict-left-fold ``cumsum``)
  and eigen bits (:func:`~repro.kernels.signatures.pack_eigen_bits`) are
  bulk-ingested at seal time via
  :meth:`~repro.core.scheme.QstrMedScheme.ingest_block_record` — cumulative
  counters and the resulting :class:`BlockRecord` are identical.
* GC, wear rotation, repair, reads, parity — everything stateful beyond
  the fault-free fast write path — run the inherited scalar code on the
  same underlying state, so they behave identically by construction.

The fast path self-gates: any configuration it cannot reproduce exactly
(fault injectors, steering, parity, wear leveling, non-static policies)
falls back to scalar behavior at construction, and :meth:`VectorFtl.flush`
(the drain at end of replay) synchronizes the deferred state and
permanently reverts to scalar — a perf-only fallback, not a correctness
one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.assembler import SpeedClass
from repro.core.placement import WriteIntent, WriteSource
from repro.core.records import BlockRecord
from repro.ftl.allocator import QstrAllocator
from repro.ftl.config import FtlConfig
from repro.ftl.ftl import FlushReport, Ftl, ReadResult
from repro.ftl.superblock import ManagedSuperblock
from repro.ftl.writebuffer import BufferedPage, WriteStream
from repro.kernels.mapping import ArrayPageMapper
from repro.kernels.signatures import eigen_bitvectors, pack_eigen_bits
from repro.kernels.variation import block_program_totals
from repro.nand.chip import FlashChip
from repro.nand.geometry import PageType
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.policy.resolve import ResolvedPolicies
from repro.policy.static import QstrAssemblyPolicy, StaticAllocationPolicy
from repro.ssd.device import Ssd
from repro.ssd.timing import TimingConfig
from repro.workloads.model import Request


class _FastSuperblock:
    """Precomputed per-open-superblock state for the fast flush path."""

    __slots__ = (
        "sb",
        "members",
        "chips",
        "states",
        "pages",
        "pe",
        "stack",
        "lat",
        "completion",
        "extra",
        "slowest",
        "by_lwl",
        "next_lwl",
    )

    def __init__(self, sb: ManagedSuperblock, ftl: "VectorFtl") -> None:
        self.sb = sb
        self.members = sb.members
        self.chips = [ftl.chips[r.lane] for r in sb.members]
        self.states = []
        self.pe = []
        matrices = []
        for record, chip in zip(sb.members, self.chips):
            state = chip._state(record.plane, record.block)
            if not state.erased or state.next_lwl != 0:
                raise RuntimeError(
                    f"fast path allocated a non-erased block "
                    f"({record.lane}, {record.plane}, {record.block})"
                )
            self.states.append(state)
            self.pe.append(state.pe_cycles)
            matrices.append(
                chip.profile.block_program_latencies(
                    record.plane, record.block, state.pe_cycles
                )
            )
        # (lanes, layers, strings) and its (lanes, lwls) flat view: row i is
        # exactly what scalar program_wordline would return per LWL.
        self.stack = np.stack(matrices)
        self.lat = self.stack.reshape(len(sb.members), -1)
        completion = self.lat.max(axis=0)
        # .tolist() yields Python floats so nothing numpy-typed ever reaches
        # the tracer, the metrics accumulators, or FlushReport.
        self.completion = completion.tolist()
        self.extra = (completion - self.lat.min(axis=0)).tolist()
        self.slowest = self.lat.argmax(axis=0).tolist()
        # rows as tuples: each flush hands its row to FlushReport unchanged
        self.by_lwl = [tuple(row) for row in self.lat.T.tolist()]
        self.pages = [state.pages for state in self.states]
        self.next_lwl = sb.next_slot // sb.pages_per_superwl


class VectorFtl(Ftl):
    """The scalar FTL with numpy-batched host-write hot paths."""

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
        super().__init__(
            chips,
            config,
            allocator_kind=allocator_kind,
            seed=seed,
            tracer=tracer,
            registry=registry,
            policies=policies,
        )
        data_lanes = len(self.lanes) - (1 if config.parity_protection else 0)
        self.mapper = ArrayPageMapper(
            self.logical_pages,
            slots_per_superblock=self.geometry.pages_per_block * data_lanes,
        )
        self._per_swl = self.buffer.superwl_pages
        self._lwls_per_block = self.geometry.lwls_per_block
        # slot -> (lane index, page type): the lwl-independent part of
        # ManagedSuperblock.slot_location over one super word-line
        self._slot_pattern: List[Tuple[int, PageType]] = []
        for within in range(self._per_swl):
            page_index, lane_index = divmod(within, data_lanes)
            self._slot_pattern.append(
                (lane_index, self.geometry.page_types[page_index])
            )
        # the same pattern with the per-lwl dict keys prebuilt, so a flush
        # does no tuple construction in its chip-state store loop
        self._key_pattern: List[List[Tuple[int, Tuple[int, PageType]]]] = [
            [
                (lane_index, (lwl, page_type))
                for lane_index, page_type in self._slot_pattern
            ]
            for lwl in range(self.geometry.lwls_per_block)
        ]
        self._fast_queue: List[int] = []
        self._fast_times: List[float] = []
        self._fast_set: Set[int] = set()
        # whether the queue currently holds one ascending contiguous LPN
        # run (sequential fills always do) — picks the slice-store mapper path
        self._fast_contig = True
        self._fast_sb: Optional[_FastSuperblock] = None
        self._gc_low = config.gc_low_watermark
        self._host_write_add = self.metrics.host_write_us.add
        self._extra_add = self.metrics.extra_program_us.add
        # bound lazily on the first flush so an empty run leaves the
        # per-stream stats dict empty, exactly like the scalar FTL
        self._stream_fast_add: Optional[Callable[[float], None]] = None
        # 0 forces a (no-op, scalar-identical) _maybe_collect + recompute on
        # the first write; afterwards the cache is refreshed after every
        # event that can lower a lane's free count.
        self._min_free_cached = 0
        self._fast_gathering = isinstance(self.allocator, QstrAllocator)
        injectors_off = all(
            not chip.injector.enabled for chip in self.chips.values()
        )
        #: the construction-time gate: every feature the fast write path
        #: cannot reproduce exactly reverts this FTL to scalar behavior
        self._fast_enabled = (
            injectors_off
            and self.predictor is None
            and config.wear_leveling is None
            and not config.superpage_steering
            and not config.parity_protection
            and type(self.policies.allocation) is StaticAllocationPolicy
            and type(self.policies.assembly) is QstrAssemblyPolicy
        )

    # -- format ----------------------------------------------------------------

    def format(self) -> None:
        """The one engine's burn-in, :meth:`Ftl.format`, unchanged.

        Burn-in runs the whole-block program and gather paths for every
        configuration, so the vector engine adds nothing here.  The method
        stays defined on this class because the benchmark's span recorder
        (``perfbench/spans.py``) wraps ``VectorFtl.format`` by name.
        """
        super().format()

    # -- fast write path ----------------------------------------------------------

    def _refresh_min_free(self) -> None:
        self._min_free_cached = self.allocator.min_free()

    def _fast_open_superblock(self) -> ManagedSuperblock:
        # mirrors _open_superblock(FAST), plus the free-count cache refresh
        sb = self.table.open_superblock(SpeedClass.FAST)
        if sb is not None and not sb.is_full:
            return sb
        sb = self._allocate_superblock(SpeedClass.FAST)
        self.table.set_open(SpeedClass.FAST, sb)
        self._refresh_min_free()
        return sb

    def _fast_write_page(self, lpn: int) -> Optional[FlushReport]:
        """One buffered host-page write; returns the flush it triggered.

        Exactly ``Ftl.write(lpn, HOST)`` for the fast-gated configuration:
        coalesce in the FAST queue, flush a full super word-line, then run
        GC only when the cached min-free count says the scalar
        ``_maybe_collect`` would actually do something.
        """
        if not self._formatted:
            self._require_format()
        self.mapper.check_lpn(lpn)
        queue = self._fast_queue
        fast_set = self._fast_set
        if lpn in fast_set:
            index = queue.index(lpn)
            del queue[index]
            del self._fast_times[index]
            self._fast_contig = False
        else:
            fast_set.add(lpn)
            if self._fast_contig and queue and queue[-1] + 1 != lpn:
                self._fast_contig = False
        queue.append(lpn)
        self._fast_times.append(self.tracer.now_us)
        report = None
        if len(queue) == self._per_swl:
            report = self._fast_flush()
        if self._min_free_cached < self._gc_low:
            self._maybe_collect()
            self._refresh_min_free()
        return report

    def _fast_flush(self) -> FlushReport:
        """Program one full FAST super word-line from precomputed tables."""
        sb_id, lwl, completion, extra, lane_lats = self._fast_flush_core()
        return FlushReport(
            superblock_id=sb_id,
            lwl=lwl,
            pages=self._per_swl,
            completion_us=completion,
            extra_us=extra,
            speed_class=SpeedClass.FAST,
            lane_latencies_us=lane_lats,
        )

    def _fast_flush_core(
        self,
    ) -> Tuple[int, int, float, float, Tuple[float, ...]]:
        """One FAST super-word-line program; ``(sb_id, lwl, completion_us,
        extra_us, lane_latencies_us)`` without the FlushReport wrapper (the
        bulk service path consumes the fields directly)."""
        st = self._fast_sb
        if st is None:
            st = _FastSuperblock(self._fast_open_superblock(), self)
            self._fast_sb = st
        sb = st.sb
        lwl = st.next_lwl
        queue = self._fast_queue
        per_swl = self._per_swl

        # claim_slots + map_page per page, batched (the queue is dedup'd and
        # the slots freshly claimed, so the trusted superwl paths apply)
        first_slot = sb.next_slot
        sb.next_slot = first_slot + per_swl
        if self._fast_contig:
            self.mapper.map_superwl_contig(queue[0], per_swl, sb.sb_id, first_slot)
        else:
            self.mapper.map_superwl(queue, sb.sb_id, first_slot)

        # the chip-state transitions scalar program_wordline performs
        states = st.states
        pages = st.pages
        for (lane_index, key), lpn in zip(self._key_pattern[lwl], queue):
            pages[lane_index][key] = lpn
        if lwl == 0:
            for chip, state in zip(st.chips, states):
                state.programmed_at_hours = chip.clock_hours
        next_lwl = lwl + 1
        for state in states:
            state.next_lwl = next_lwl

        completion = st.completion[lwl]
        extra = st.extra[lwl]
        metrics = self.metrics
        metrics.host_pages_written += per_swl
        self._host_write_add(completion)
        self._extra_add(extra)
        stream_add = self._stream_fast_add
        if stream_add is None:
            metrics.record_stream_write("fast", completion)
            self._stream_fast_add = metrics.stream_write_us["fast"].add
        else:
            stream_add(completion)

        lane_lats = st.by_lwl[lwl]
        if self.tracer.enabled:
            self._trace_fast_flush(st, lwl, completion, extra, lane_lats)

        st.next_lwl = next_lwl
        self._fast_queue = []
        self._fast_times = []
        self._fast_set = set()
        self._fast_contig = True

        if next_lwl == self._lwls_per_block:
            sb.seal()
            self.table.set_open(SpeedClass.FAST, None)
            self._fast_seal(st)
            self._fast_sb = None
        return sb.sb_id, lwl, completion, extra, lane_lats

    def _fast_seal(self, st: _FastSuperblock) -> None:
        """Bulk-deliver the deferred gathering metadata of a sealed superblock."""
        if not self._fast_gathering:
            return
        totals = block_program_totals(st.lat)
        lwls = self._lwls_per_block
        eigens = eigen_bitvectors(pack_eigen_bits(st.stack), lwls)
        scheme = self.allocator.scheme  # type: ignore[attr-defined]
        for i, record in enumerate(st.members):
            scheme.ingest_block_record(
                BlockRecord(
                    lane=record.lane,
                    plane=record.plane,
                    block=record.block,
                    pgm_total_us=float(totals[i]),
                    eigen=eigens[i],
                    pe_cycles=st.pe[i],
                ),
                lwls,
            )

    def _trace_fast_flush(
        self,
        st: _FastSuperblock,
        lwl: int,
        completion: float,
        extra: float,
        lane_lats: Sequence[float],
    ) -> None:
        # byte-for-byte the events (and kwarg order) of Ftl._trace_flush
        sb = st.sb
        tracer = self.tracer
        now = tracer.now_us
        waits = [now - enqueued for enqueued in self._fast_times]
        tracer.complete(
            "superpage_program",
            "ftl.program",
            now,
            completion,
            track="ftl",
            superblock=sb.sb_id,
            lwl=lwl,
            stream=WriteStream.FAST.value,
            pages=len(waits),
            buffer_wait_mean_us=sum(waits) / len(waits),
            buffer_wait_max_us=max(waits),
        )
        lat = lane_lats
        slowest_index = st.slowest[lwl]
        fastest_index = min(range(len(lat)), key=lambda i: lat[i])
        slowest = sb.members[slowest_index]
        fastest = sb.members[fastest_index]
        tracer.instant(
            "mp_program",
            "ftl.attribution",
            ts_us=now,
            track="ftl",
            superblock=sb.sb_id,
            lwl=lwl,
            speed_class=SpeedClass.FAST.name.lower(),
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
            lane_latencies_us=[round(value, 3) for value in lat],
        )

    # -- scalar API parity ----------------------------------------------------------

    def write(
        self,
        lpn: int,
        source: WriteSource = WriteSource.HOST,
        intent: Optional[WriteIntent] = None,
    ) -> List[FlushReport]:
        if not self._fast_enabled:
            return super().write(lpn, source, intent)
        self._require_format()
        self.mapper.check_lpn(lpn)
        if intent is not None and intent.source is not source:
            raise ValueError("intent.source must match source")
        if source is not WriteSource.HOST:
            # non-host writes through the public API are not worth a fast
            # path: sync the deferred state and continue scalar
            self._fast_desync()
            return super().write(lpn, source, intent)
        report = self._fast_write_page(lpn)
        return [] if report is None else [report]

    def read(self, lpn: int) -> ReadResult:
        if self._fast_enabled:
            self._require_format()
            self.mapper.check_lpn(lpn)
            if lpn in self._fast_set:
                return ReadResult(lpn=lpn, located=True, latency_us=0.0, buffer_hit=True)
        return super().read(lpn)

    def trim(self, lpn: int) -> None:
        if not self._fast_enabled:
            super().trim(lpn)
            return
        self._require_format()
        if lpn in self._fast_set:
            index = self._fast_queue.index(lpn)
            del self._fast_queue[index]
            del self._fast_times[index]
            self._fast_set.discard(lpn)
            self._fast_contig = False
        self.mapper.unmap_page(lpn)

    def flush(self) -> List[FlushReport]:
        if self._fast_enabled:
            self._fast_desync()
        return super().flush()

    def _fast_desync(self) -> None:
        """Hand the deferred fast-path state back to the scalar machinery.

        Queued pages return to the scalar write buffer (FIFO order and
        enqueue timestamps intact) and the partially-written open fast
        superblock replays its per-word-line latency reports so the
        gatherer's staging state matches a scalar run exactly.  Fast mode
        stays off afterwards — this runs once, at the drain that ends a
        replay, and the scalar code continues correctly from the synced
        state.
        """
        self._fast_enabled = False
        for lpn, enqueued in zip(self._fast_queue, self._fast_times):
            self.buffer.push(
                WriteStream.FAST,
                BufferedPage(lpn=lpn, source=WriteSource.HOST, enqueued_us=enqueued),
            )
        self._fast_queue = []
        self._fast_times = []
        self._fast_set = set()
        self._fast_contig = True
        st = self._fast_sb
        self._fast_sb = None
        if st is not None and st.next_lwl > 0:
            lat = st.lat
            for lwl in range(st.next_lwl):
                for i, record in enumerate(st.members):
                    self.allocator.on_wordline_programmed(
                        record.lane,
                        record.plane,
                        record.block,
                        lwl,
                        float(lat[i, lwl]),
                    )


class VectorSsd(Ssd):
    """The scalar SSD with an inlined fast host-write service path."""

    def __init__(
        self,
        ftl: Ftl,
        timing: TimingConfig = TimingConfig(),
        lane_channel_map: Optional[Dict[int, int]] = None,
        tracer: Optional[NullTracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(ftl, timing, lane_channel_map, tracer, registry)
        # insertion order of self.channels is sorted channel id — the same
        # iteration order scalar min(..., key=busy_until_us) sees, so the
        # inlined first-minimal scan picks the identical clock
        self._channel_list = tuple(self.channels.values())
        self._swl_transfer_us = self._page_transfer_us * ftl.geometry.bits_per_cell
        self._fast = isinstance(ftl, VectorFtl)
        self._route: Optional[Tuple] = None
        self._route_sb_id = -1
        # timelines attach at construction (registry); with none attached
        # the bulk path can run channel clocks on local floats
        self._plain_channels = all(
            channel.timeline is None for channel in self._channel_list
        )
        self._busys = [0.0] * len(self._channel_list)
        self._btimes = [0.0] * len(self._channel_list)

    def _service_write(self, request: Request, now: float) -> float:
        ftl = self.ftl
        if not (self._fast and ftl._fast_enabled):
            return super()._service_write(request, now)
        if (
            self.tracer.enabled
            or not self._plain_channels
            or not ftl._formatted
            or request.lpn < 0
            or request.lpn + request.pages > ftl.logical_pages
        ):
            # event-emitting (or error-raising) requests replay the exact
            # per-page scalar sequence
            return self._service_write_events(request, now)
        if len(self._channel_list) == 2:
            return self._service_write_bulk2(request, now)
        return self._service_write_bulk(request, now)

    def _service_write_bulk(self, request: Request, now: float) -> float:
        """The untraced host-write fast path: whole chunks at a time.

        Between two flush boundaries the channel clocks interact with
        nothing else, so the per-page first-minimal scans run on a local
        float list and the FTL queue grows by C-speed bulk extends.  The
        resulting clock values, queue order and flush points are identical
        to the per-page path — ``isdisjoint`` drops any window that would
        coalesce an overwrite back onto the exact dedup sequence.
        """
        ftl = self.ftl
        finish = now + self.timing.command_overhead_us
        ptu = self._page_transfer_us
        channels = self._channel_list
        nch = len(channels)
        # local clock copies; btimes takes one add per pick so the float
        # accumulation order matches scalar's per-acquire `+= ptu` exactly
        busys = self._busys
        btimes = self._btimes
        for i in range(nch):
            busys[i] = channels[i].busy_until_us
            btimes[i] = channels[i].busy_time_us
        queue = ftl._fast_queue
        times = ftl._fast_times
        fast_set = ftl._fast_set
        per_swl = ftl._per_swl
        now_ts = ftl.tracer.now_us
        gc_low = ftl._gc_low
        lpn = request.lpn
        end = lpn + request.pages
        while lpn < end:
            # min-free only changes at flush/GC boundaries, so checking per
            # chunk hits the same trigger points as scalar's per-page check
            if ftl._min_free_cached < gc_low:
                ftl._maybe_collect()
                ftl._refresh_min_free()
            k = per_swl - len(queue)
            if k > end - lpn:
                k = end - lpn
            chunk = range(lpn, lpn + k)
            if fast_set.isdisjoint(chunk):
                if ftl._fast_contig and queue and queue[-1] + 1 != lpn:
                    ftl._fast_contig = False
                fast_set.update(chunk)
                queue.extend(chunk)
                times.extend([now_ts] * k)
                transfer_done = finish
                for _ in range(k):
                    ci = 0
                    busy = busys[0]
                    for i in range(1, nch):
                        value = busys[i]
                        if value < busy:
                            busy = value
                            ci = i
                    start = now if now > busy else busy
                    transfer_done = start + ptu
                    busys[ci] = transfer_done
                    btimes[ci] += ptu
                # successive transfer_done values never decrease: each pick
                # replaces the minimum clock with a larger one
                if transfer_done > finish:
                    finish = transfer_done
            else:
                for one in chunk:
                    ci = 0
                    busy = busys[0]
                    for i in range(1, nch):
                        value = busys[i]
                        if value < busy:
                            busy = value
                            ci = i
                    start = now if now > busy else busy
                    transfer_done = start + ptu
                    busys[ci] = transfer_done
                    btimes[ci] += ptu
                    if transfer_done > finish:
                        finish = transfer_done
                    if one in fast_set:
                        index = queue.index(one)
                        del queue[index]
                        del times[index]
                        ftl._fast_contig = False
                    else:
                        fast_set.add(one)
                        if ftl._fast_contig and queue and queue[-1] + 1 != one:
                            ftl._fast_contig = False
                    queue.append(one)
                    times.append(now_ts)
            lpn += k
            if len(queue) == per_swl:
                # write the local clocks back before the flush acquires them
                for i in range(nch):
                    channel = channels[i]
                    channel.busy_until_us = busys[i]
                    channel.busy_time_us = btimes[i]
                sb_id, _, completion, _, _ = ftl._fast_flush_core()
                done = self._apply_fast_program(sb_id, completion, now)
                if done > finish:
                    finish = done
                for i in range(nch):
                    busys[i] = channels[i].busy_until_us
                    btimes[i] = channels[i].busy_time_us
                queue = ftl._fast_queue
                times = ftl._fast_times
                fast_set = ftl._fast_set
        for i in range(nch):
            channel = channels[i]
            channel.busy_until_us = busys[i]
            channel.busy_time_us = btimes[i]
        return finish

    def _service_write_bulk2(self, request: Request, now: float) -> float:
        """:meth:`_service_write_bulk` for exactly two channels.

        The first-minimal scan collapses to one compare on plain local
        floats (``b1 < b0`` picks channel 1, ties go to the lower index
        just like the strictly-less scan), which is worth ~10% of the
        replay phase on the stock two-channel bench device.
        """
        ftl = self.ftl
        finish = now + self.timing.command_overhead_us
        ptu = self._page_transfer_us
        c0, c1 = self._channel_list
        b0 = c0.busy_until_us
        t0 = c0.busy_time_us
        b1 = c1.busy_until_us
        t1 = c1.busy_time_us
        queue = ftl._fast_queue
        times = ftl._fast_times
        fast_set = ftl._fast_set
        per_swl = ftl._per_swl
        now_ts = ftl.tracer.now_us
        gc_low = ftl._gc_low
        lpn = request.lpn
        end = lpn + request.pages
        while lpn < end:
            if ftl._min_free_cached < gc_low:
                ftl._maybe_collect()
                ftl._refresh_min_free()
            k = per_swl - len(queue)
            if k > end - lpn:
                k = end - lpn
            chunk = range(lpn, lpn + k)
            if fast_set.isdisjoint(chunk):
                if ftl._fast_contig and queue and queue[-1] + 1 != lpn:
                    ftl._fast_contig = False
                fast_set.update(chunk)
                queue.extend(chunk)
                times.extend([now_ts] * k)
                transfer_done = finish
                for _ in range(k):
                    if b1 < b0:
                        start = now if now > b1 else b1
                        transfer_done = start + ptu
                        b1 = transfer_done
                        t1 += ptu
                    else:
                        start = now if now > b0 else b0
                        transfer_done = start + ptu
                        b0 = transfer_done
                        t0 += ptu
                if transfer_done > finish:
                    finish = transfer_done
            else:
                for one in chunk:
                    if b1 < b0:
                        start = now if now > b1 else b1
                        transfer_done = start + ptu
                        b1 = transfer_done
                        t1 += ptu
                    else:
                        start = now if now > b0 else b0
                        transfer_done = start + ptu
                        b0 = transfer_done
                        t0 += ptu
                    if transfer_done > finish:
                        finish = transfer_done
                    if one in fast_set:
                        index = queue.index(one)
                        del queue[index]
                        del times[index]
                        ftl._fast_contig = False
                    else:
                        fast_set.add(one)
                        if ftl._fast_contig and queue and queue[-1] + 1 != one:
                            ftl._fast_contig = False
                    queue.append(one)
                    times.append(now_ts)
            lpn += k
            if len(queue) == per_swl:
                c0.busy_until_us = b0
                c0.busy_time_us = t0
                c1.busy_until_us = b1
                c1.busy_time_us = t1
                sb_id, _, completion, _, _ = ftl._fast_flush_core()
                done = self._apply_fast_program(sb_id, completion, now)
                if done > finish:
                    finish = done
                b0 = c0.busy_until_us
                t0 = c0.busy_time_us
                b1 = c1.busy_until_us
                t1 = c1.busy_time_us
                queue = ftl._fast_queue
                times = ftl._fast_times
                fast_set = ftl._fast_set
        c0.busy_until_us = b0
        c0.busy_time_us = t0
        c1.busy_until_us = b1
        c1.busy_time_us = t1
        return finish

    def _service_write_events(self, request: Request, now: float) -> float:
        ftl = self.ftl
        finish = now + self.timing.command_overhead_us
        ptu = self._page_transfer_us
        channels = self._channel_list
        tracer = self.tracer
        traced = tracer.enabled
        write_page = ftl._fast_write_page  # type: ignore[attr-defined]
        for lpn in range(request.lpn, request.lpn + request.pages):
            channel = channels[0]
            for other in channels[1:]:
                if other.busy_until_us < channel.busy_until_us:
                    channel = other
            # ResourceClock.acquire, inlined
            busy = channel.busy_until_us
            start = now if now > busy else busy
            transfer_done = start + ptu
            channel.busy_until_us = transfer_done
            channel.busy_time_us += ptu
            if channel.timeline is not None:
                channel.timeline.record(start, ptu)
            if transfer_done > finish:
                finish = transfer_done
            if traced:
                tracer.complete(
                    "bus_transfer",
                    "ssd.bus",
                    transfer_done - ptu,
                    ptu,
                    track=channel.name,
                    lpn=lpn,
                )
            report = write_page(lpn)
            if report is not None:
                done = self._apply_fast_flush(report, now)
                if done > finish:
                    finish = done
        return finish

    def _route_for(self, sb_id: int) -> Tuple:
        # the per-member channel/die route, cached per superblock
        route = self._route
        if route is None or self._route_sb_id != sb_id:
            sb = self.ftl.table.get(sb_id)
            route = tuple(
                (
                    self.channels[self.lane_channel[record.lane]],
                    self.dies[record.lane],
                    record.lane,
                    record.block,
                )
                for record in sb.members
            )
            self._route = route
            self._route_sb_id = sb_id
        return route

    def _apply_fast_program(
        self, sb_id: int, completion_us: float, now: float
    ) -> float:
        # the untraced Ssd._apply_flush (fault-free fast flushes carry no
        # repair time)
        route = self._route_for(sb_id)
        completion = now
        transfer_us = self._swl_transfer_us
        # scalar adds a zero lane_repair_us before occupying the die
        program_us = completion_us + 0.0
        for channel, die, lane, block in route:
            busy = channel.busy_until_us
            start = now if now > busy else busy
            transfer_done = start + transfer_us
            channel.busy_until_us = transfer_done
            channel.busy_time_us += transfer_us
            if channel.timeline is not None:
                channel.timeline.record(start, transfer_us)
            die_busy = die.busy_until_us
            die_start = transfer_done if transfer_done > die_busy else die_busy
            die_done = die_start + program_us
            die.busy_until_us = die_done
            die.busy_time_us += program_us
            if die.timeline is not None:
                die.timeline.record(die_start, program_us)
            if die_done > completion:
                completion = die_done
        return completion

    def _apply_fast_flush(self, report: FlushReport, now: float) -> float:
        tracer = self.tracer
        if not tracer.enabled:
            return self._apply_fast_program(
                report.superblock_id, report.completion_us, now
            )
        sb_id = report.superblock_id
        route = self._route_for(sb_id)
        completion = now
        transfer_us = self._swl_transfer_us
        # scalar adds a zero lane_repair_us before occupying the die
        program_us = report.completion_us + 0.0
        for lane_index, (channel, die, lane, block) in enumerate(route):
            busy = channel.busy_until_us
            start = now if now > busy else busy
            transfer_done = start + transfer_us
            channel.busy_until_us = transfer_done
            channel.busy_time_us += transfer_us
            if channel.timeline is not None:
                channel.timeline.record(start, transfer_us)
            die_busy = die.busy_until_us
            die_start = transfer_done if transfer_done > die_busy else die_busy
            die_done = die_start + program_us
            die.busy_until_us = die_done
            die.busy_time_us += program_us
            if die.timeline is not None:
                die.timeline.record(die_start, program_us)
            if die_done > completion:
                completion = die_done
            tracer.complete(
                "data_in",
                "ssd.bus",
                transfer_done - transfer_us,
                transfer_us,
                track=channel.name,
                superblock=sb_id,
                chip=lane,
            )
            tracer.complete(
                "chip_program",
                "ssd.die",
                transfer_done,
                report.completion_us,
                track=die.name,
                superblock=sb_id,
                lwl=report.lwl,
                chip=lane,
                block=block,
                own_latency_us=round(report.lane_latencies_us[lane_index], 3),
            )
        return completion
