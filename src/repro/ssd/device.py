"""The SSD device: host request service on top of the FTL.

A request-at-a-time timing simulator: host requests arrive with timestamps,
pages move over per-channel buses (serialized per channel), flash operations
take the latencies the chips report, and MP-style superpage programs
complete at their slowest lane — so the extra latency the paper studies
shows up directly in host-visible service times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.placement import WriteIntent, WriteSource
from repro.ftl.ftl import FlushReport, Ftl
from repro.obs.histograms import LatencyStat
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NullTracer
from repro.ssd.timing import ResourceClock, TimingConfig, default_lane_channel_map
from repro.workloads.model import OpKind, Request


@dataclass(frozen=True)
class CompletedRequest:
    """Service record of one host request."""

    request: Request
    start_us: float
    finish_us: float

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.request.time_us

    @property
    def service_us(self) -> float:
        return self.finish_us - self.start_us


@dataclass
class SsdMetrics:
    """Host-visible latency statistics by operation kind (with tails)."""

    read_latency_us: LatencyStat = field(default_factory=LatencyStat)
    write_latency_us: LatencyStat = field(default_factory=LatencyStat)
    requests: int = 0
    last_finish_us: float = 0.0

    def record(self, completed: CompletedRequest) -> None:
        self.requests += 1
        self.last_finish_us = max(self.last_finish_us, completed.finish_us)
        if completed.request.op is OpKind.READ:
            self.read_latency_us.add(completed.latency_us)
        elif completed.request.op is OpKind.WRITE:
            self.write_latency_us.add(completed.latency_us)


class Ssd:
    """Host interface: submit timestamped requests, get completion times."""

    def __init__(
        self,
        ftl: Ftl,
        timing: TimingConfig = TimingConfig(),
        lane_channel_map: Optional[Dict[int, int]] = None,
        tracer: Optional[NullTracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.ftl = ftl
        self.timing = timing
        # One observability context per stack: unless overridden, the device
        # shares the FTL's tracer/registry so spans from both layers land in
        # one trace.
        self.tracer = ftl.tracer if tracer is None else tracer
        self.registry = ftl.registry if registry is None else registry
        if lane_channel_map is None:
            lane_channel_map = default_lane_channel_map(ftl.lanes, timing.channels)
        missing = set(ftl.lanes) - set(lane_channel_map)
        if missing:
            raise ValueError(f"lanes without a channel: {sorted(missing)}")
        self.lane_channel = lane_channel_map

        def clock(name: str) -> ResourceClock:
            timeline = (
                self.registry.timeline(name) if self.registry is not None else None
            )
            return ResourceClock(name, timeline)

        self.channels: Dict[int, ResourceClock] = {
            ch: clock(f"channel{ch}") for ch in sorted(set(lane_channel_map.values()))
        }
        self.dies: Dict[int, ResourceClock] = {
            lane: clock(f"die{lane}") for lane in ftl.lanes
        }
        self.metrics = SsdMetrics()
        self._page_transfer_us = timing.page_transfer_us(ftl.geometry)
        # Live fault injectors need the simulated clock for their
        # time-triggered events; empty (the common case) costs nothing.
        self._injectors = [
            chip.injector for chip in ftl.chips.values() if chip.injector.enabled
        ]

    # -- request service ------------------------------------------------------

    def submit(self, request: Request) -> CompletedRequest:
        """Service one request."""
        now = request.time_us
        self.tracer.advance(now)
        for injector in self._injectors:
            injector.advance(now)
        if request.op is OpKind.WRITE:
            finish = self._service_write(request, now)
        elif request.op is OpKind.READ:
            finish = self._service_read(request, now)
        elif request.op is OpKind.TRIM:
            finish = now + self.timing.command_overhead_us
            for lpn in request.lpns():
                self.ftl.trim(lpn)
        else:
            raise ValueError(f"unsupported op {request.op}")
        completed = CompletedRequest(request=request, start_us=now, finish_us=finish)
        self.metrics.record(completed)
        if self.tracer.enabled:
            self.tracer.complete(
                f"host_{request.op.name.lower()}",
                "ssd.request",
                now,
                finish - now,
                track="host",
                lpn=request.lpn,
                pages=request.pages,
            )
        return completed

    def _service_write(self, request: Request, now: float) -> float:
        finish = now + self.timing.command_overhead_us
        # The request's shape feeds the FTL's superpage steering: multi-page
        # requests count as sequential batch traffic, single/small ones as
        # the random writes Section V-D wants on fast superpages.
        intent = WriteIntent(
            source=WriteSource.HOST,
            pages=request.pages,
            sequential=request.pages >= 8,
        )
        for lpn in request.lpns():
            # Host data crosses some channel into the DRAM buffer; charge the
            # least-loaded channel (controllers stripe DMA).
            channel = min(self.channels.values(), key=lambda c: c.busy_until_us)
            transfer_done = channel.acquire(now, self._page_transfer_us)
            finish = max(finish, transfer_done)
            if self.tracer.enabled:
                self.tracer.complete(
                    "bus_transfer",
                    "ssd.bus",
                    transfer_done - self._page_transfer_us,
                    self._page_transfer_us,
                    track=channel.name,
                    lpn=lpn,
                )
            reports = self.ftl.write(lpn, WriteSource.HOST, intent=intent)
            for report in reports:
                finish = max(finish, self._apply_flush(report, now))
        return finish

    def _apply_flush(self, report: FlushReport, now: float) -> float:
        """Occupy dies/channels for one superpage program; return completion."""
        sb = self.ftl.table.get(report.superblock_id)
        completion = now
        transfer_us = self._page_transfer_us * self.ftl.geometry.bits_per_cell
        for lane_index, record in enumerate(sb.members):
            channel = self.channels[self.lane_channel[record.lane]]
            transfer_done = channel.acquire(now, transfer_us)
            die = self.dies[record.lane]
            # The program occupies the die after its data arrived; the MP
            # command completes when the slowest die finishes.  A lane that
            # had to repair its member first (retire + copy-back onto a
            # spare) holds its die for that extra time too.
            lane_repair_us = (
                report.repair_us[lane_index]
                if lane_index < len(report.repair_us)
                else 0.0
            )
            die_done = die.acquire(transfer_done, report.completion_us + lane_repair_us)
            completion = max(completion, die_done)
            if self.tracer.enabled:
                self.tracer.complete(
                    "data_in",
                    "ssd.bus",
                    transfer_done - transfer_us,
                    transfer_us,
                    track=channel.name,
                    superblock=report.superblock_id,
                    chip=record.lane,
                )
                # The die is held until the MP command's completion; the
                # member's own program time is attached for attribution.
                self.tracer.complete(
                    "chip_program",
                    "ssd.die",
                    transfer_done,
                    report.completion_us,
                    track=die.name,
                    superblock=report.superblock_id,
                    lwl=report.lwl,
                    chip=record.lane,
                    block=record.block,
                    own_latency_us=(
                        round(report.lane_latencies_us[lane_index], 3)
                        if lane_index < len(report.lane_latencies_us)
                        else None
                    ),
                )
        return completion

    def _service_read(self, request: Request, now: float) -> float:
        finish = now + self.timing.command_overhead_us
        for lpn in request.lpns():
            result = self.ftl.read(lpn)
            record = result.member
            if record is None:
                # unmapped, or answered from the write buffer: no flash read
                continue
            die = self.dies[record.lane]
            sense_done = die.acquire(now, result.latency_us)
            channel = self.channels[self.lane_channel[record.lane]]
            transfer_done = channel.acquire(sense_done, self._page_transfer_us)
            finish = max(finish, transfer_done)
            if self.tracer.enabled:
                self.tracer.complete(
                    "chip_read",
                    "ssd.die",
                    sense_done - result.latency_us,
                    result.latency_us,
                    track=die.name,
                    lpn=lpn,
                    chip=record.lane,
                    block=record.block,
                )
                self.tracer.complete(
                    "bus_transfer",
                    "ssd.bus",
                    transfer_done - self._page_transfer_us,
                    self._page_transfer_us,
                    track=channel.name,
                    lpn=lpn,
                )
        return finish

    # -- reporting ----------------------------------------------------------------

    def utilization(self) -> Dict[str, float]:
        elapsed = self.metrics.last_finish_us
        report = {
            clock.name: clock.utilization(elapsed)
            for clock in list(self.channels.values()) + list(self.dies.values())
        }
        return report
