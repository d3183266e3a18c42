"""The four workloads: seeded inputs, one serve call, exact results, checks.

Every workload drives the program only through its primary public APIs
(``SimConfig.device``/``SimConfig.testbed``, ``build_stack``,
``build_fleet``, ``Replayer``/``Ssd.submit``, ``FleetSim.run`` and
``run_methods``), never selects an execution backend, and generates all of
its inputs from the benchmark seed.  Module functions are called through
their modules so the traced run's wrappers (``perfbench.spans``) see them.

Simulated time runs open loop: arrivals follow the seeded Poisson process
whatever the device does, and latency counts from the arrival.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import repro.analysis.experiments as experiments
import repro.exp.build as exp_build
import repro.fleet.tenants as tenants
import repro.workloads.synthetic as synthetic
from repro.assembly.base import Assembler, LanePool
from repro.exp import SimConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fleet import FleetConfig
from repro.ftl.ftl import Ftl, OutOfSpaceError
from repro.obs.histograms import LatencyStat
from repro.obs.registry import MetricsRegistry
from repro.ssd.device import Ssd
from repro.utils.rng import derive_seed
from repro.workloads.model import OpKind, Request
from repro.workloads.replay import Replayer

from perfbench.metrics import CheckFailed, percentile
from perfbench.spans import Patches

#: Mean interarrival of the device workloads: the busiest die is ~11 % busy,
#: so requests queue behind programs, GC and repair, yet the last tenth of
#: requests sees the same latencies as the middle (no growing backlog).
DEVICE_INTERARRIVAL_US = 2000.0
#: Zipf overwrite volume of device_zipf_gc, in logical spaces: long enough
#: for 50+ GC runs and a write amplification of ~1.44.
ZIPF_OVERWRITE_FRACTION = 1.5
#: device_faulted_mixed: requests in the read/write mix after the fill
#: (~12,000 reads, so read p99.9 has its 10,000 samples with margin).
MIXED_REQUESTS = 24_000
#: Program-fail rate and spare capacity with margin: 0.0005 at 0.45
#: exhausted a lane on half of the seeds tried.
FAULT_PROGRAM_PROB = 0.0003
FAULTED_OVERPROVISION = 0.5
#: fleet_outage: tenants x requests, and the tenant profile cycle.  Three
#: of every four tenants run the 50 % read mix (~10,800 fleet reads).
FLEET_TENANTS = 16
FLEET_REQUESTS_PER_TENANT = 1_800
FLEET_PROFILES = ("zipf", "mixed", "mixed", "mixed")
FLEET_BLOCKS = 24
#: When every chip of device 0 loses plane 0: about half-way through.
FLEET_OUTAGE_US = 1_800_000.0
#: paper_tables: Tables I, II and V's twelve directions.
DIRECTIONS = (
    "SEQUENTIAL",
    "ERS-LTN",
    "PGM-LTN",
    "OPTIMAL(8)",
    "LWL-RANK(8)",
    "PWL-RANK(8)",
    "STR-RANK(8)",
    "STR-MED(4)",
    "STR-RANK(6)",
    "STR-RANK(4)",
    "STR-RANK(2)",
    "QSTR-MED(4)",
)


def _seed(seed: int, workload: str, purpose: str) -> int:
    return derive_seed(seed, "perfbench", workload, purpose)


# ---------------------------------------------------------------------------
# outcome of one repetition
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one repetition produced, host time aside.

    ``sim`` maps simulated metric -> (value, samples); ``counts`` holds the
    exact per-layer counts read from program state.  Both must repeat
    exactly for a seed.
    """

    attempted: int
    failed: int
    sim: Dict[str, Tuple[float, int]]
    counts: Dict[str, float]
    engine: str
    checks: List[str] = field(default_factory=list)
    #: device reads, and those answered without the page (part of ``failed``)
    device_reads: int = 0
    reads_without_data: int = 0


class Observer:
    """Thin wrappers that watch what was served, kept out of the timing.

    Around ``Ssd.submit`` it records each request's latency, the pages each
    device took writes for, and reads the device answers without holding
    the page (neither mapped nor buffered — judged through the device's
    public mapper before the read is served).  Around every assembler's
    ``assemble`` it keeps the superblocks for the lane check.  Its own
    time is reported to the clock as excluded.
    """

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.latencies: Dict[OpKind, List[float]] = {OpKind.READ: [], OpKind.WRITE: []}
        self.reads_without_data = 0
        self.device_reads = 0
        self.written: Dict[int, Tuple[Ssd, Set[int]]] = {}
        #: (method name, superblocks, pool lanes) per assemble call
        self.assembled: List[Tuple[str, Any, List[int]]] = []

    def install(self, patches: Patches) -> None:
        submit = Ssd.__dict__["submit"]
        observer = self
        clock = time.perf_counter

        def observed_submit(ssd: Ssd, request: Request) -> Any:
            t0 = clock()
            if request.op is OpKind.READ:
                ftl = ssd.ftl
                buffered = ftl.buffer.buffered_lpns()
                observer.device_reads += 1
                if any(lpn not in buffered and ftl.mapper.lookup(lpn) is None for lpn in request.lpns()):
                    observer.reads_without_data += 1
            t1 = clock()
            completed = submit(ssd, request)
            t2 = clock()
            observer.latencies[request.op].append(completed.latency_us)
            if request.op is OpKind.WRITE:
                entry = observer.written.get(id(ssd))
                if entry is None:
                    entry = observer.written[id(ssd)] = (ssd, set())
                entry[1].update(request.lpns())
            observer.clock.exclude(t0, t1)
            observer.clock.exclude(t2, clock())
            return completed

        patches.set(Ssd, "submit", observed_submit)
        classes = [Assembler]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes[1:]:
            if "assemble" in cls.__dict__:
                patches.wrap_method(cls, "assemble", self._capture)

    def _capture(self, assemble: Any) -> Any:
        def captured(assembler: Assembler, pools: Sequence[LanePool]) -> Any:
            superblocks = assemble(assembler, pools)
            self.assembled.append((assembler.name, superblocks, [pool.lane for pool in pools]))
            return superblocks

        return captured


class RecordingRegistry(MetricsRegistry):
    """A registry whose fleet latency histograms also keep raw samples.

    The fleet reports its latencies through ``repro.obs`` histograms, whose
    quantiles are bucket estimates; the benchmark wants exact percentiles,
    so it hands ``build_fleet`` this registry.
    """

    def __init__(self) -> None:
        super().__init__()
        self.recorded = {
            name: _RecordingStat() for name in ("fleet.read_latency_us", "fleet.write_latency_us")
        }

    def histogram(self, name: str, *args: Any, **kwargs: Any) -> LatencyStat:
        if name in self.recorded:
            return self.recorded[name]
        return super().histogram(name, *args, **kwargs)


class _RecordingStat(LatencyStat):
    __slots__ = ("values",)

    def __init__(self) -> None:
        super().__init__()
        self.values: List[float] = []

    def add(self, value: float) -> None:
        super().add(value)
        self.values.append(value)


# ---------------------------------------------------------------------------
# shared device accounting
# ---------------------------------------------------------------------------


def _check_engine(devices: Sequence[Ssd]) -> str:
    for ssd in devices:
        if type(ssd) is not Ssd or type(ssd.ftl) is not Ftl:
            raise CheckFailed(
                "engine", f"ran {type(ssd).__name__}/{type(ssd.ftl).__name__}, want the scalar Ssd/Ftl"
            )
    return f"{type(devices[0].ftl).__name__}/{type(devices[0]).__name__}"


def _check_mapped(observer: Observer, skip: Sequence[Ssd] = ()) -> None:
    """Every page a device took a write for is still locatable on it."""
    for ssd, lpns in observer.written.values():
        if any(ssd is other for other in skip):
            continue
        ftl = ssd.ftl
        buffered = ftl.buffer.buffered_lpns()
        lost = [lpn for lpn in lpns if lpn not in buffered and ftl.mapper.lookup(lpn) is None]
        if lost:
            raise CheckFailed(
                "mapped", f"{len(lost)} written pages no longer mapped (first lpn {min(lost)})"
            )


def _check_device_superblocks(devices: Sequence[Ssd]) -> None:
    for ssd in devices:
        ftl = ssd.ftl
        seen: Set[Tuple[int, int, int]] = set()
        for sb in ftl.table:
            lanes = [record.lane for record in sb.members]
            keys = [(record.lane, record.plane, record.block) for record in sb.members]
            if sorted(lanes) != sorted(ftl.lanes) or seen.intersection(keys):
                raise CheckFailed(
                    "superblock_lanes", f"superblock {sb.sb_id} members {keys} (lanes {ftl.lanes})"
                )
            seen.update(keys)


#: Per-layer counts read from program state, at their value for an idle layer.
IDLE_COUNTS: Dict[str, float] = {
    name: 0.0
    for name in (
        "ftl.gc_runs",
        "ftl.gc_pages_written",
        "ftl.sb_repairs",
        "core.pair_checks",
        "ssd.die_busy_frac",
        "ssd.channel_busy_frac",
        "faults.fired",
        "fleet.hedges",
        "fleet.hedge_win_frac",
        "fleet.retries",
        "fleet.rejections",
        "fleet.breaker_opens",
        "fleet.ejections",
        "assembly.optimal_combinations",
    )
}


def _device_counts(devices: Sequence[Ssd]) -> Dict[str, float]:
    metrics = [ssd.ftl.metrics for ssd in devices]
    dies: List[float] = []
    channels: List[float] = []
    for ssd in devices:
        for name, value in ssd.utilization().items():
            (dies if name.startswith("die") else channels).append(value)
    fired = 0
    for ssd in devices:
        for chip in ssd.ftl.chips.values():
            injector = chip.injector
            fired += sum(
                getattr(injector, name, 0)
                for name in (
                    "injected_program_fails",
                    "injected_erase_fails",
                    "injected_read_storms",
                    "injected_plane_outages",
                )
            )
    return {
        **IDLE_COUNTS,
        "ftl.gc_runs": float(sum(m.gc_runs for m in metrics)),
        "ftl.gc_pages_written": float(sum(m.gc_pages_written for m in metrics)),
        "ftl.sb_repairs": float(sum(m.sb_repairs for m in metrics)),
        "core.pair_checks": float(sum(ssd.ftl.allocator.pair_checks for ssd in devices)),
        "ssd.die_busy_frac": sum(dies) / len(dies),
        "ssd.channel_busy_frac": sum(channels) / len(channels),
        "faults.fired": float(fired),
    }


def _device_sim(devices: Sequence[Ssd]) -> Dict[str, Tuple[float, int]]:
    metrics = [ssd.ftl.metrics for ssd in devices]
    extra_total = sum(m.extra_program_us.total for m in metrics)
    programs = sum(m.extra_program_us.count for m in metrics)
    host = sum(m.host_pages_written for m in metrics)
    gc = sum(m.gc_pages_written for m in metrics)
    return {
        "sim_extra_pgm_us": (extra_total / programs, programs),
        "write_amp": ((host + gc) / host, host),
    }


def _latency_sim(op: str, values: Sequence[float]) -> Dict[str, Tuple[float, int]]:
    return {
        f"sim_{op}_p50_us": (percentile(values, 0.5, f"sim_{op}_p50_us"), len(values)),
        f"sim_{op}_p999_us": (percentile(values, 0.999, f"sim_{op}_p999_us"), len(values)),
    }


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


class Workload:
    """One named workload: ``setup`` builds and generates, ``serve`` is timed."""

    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def serve(self, state: Any) -> None:
        raise NotImplementedError

    def evaluate(self, state: Any, observer: Observer) -> Outcome:
        raise NotImplementedError


@dataclass
class DeviceState:
    ssd: Ssd
    requests: List[Request]
    served: Optional[int] = None


class DeviceWorkload(Workload):
    """A single device replaying one request stream (shared by device_*)."""

    has_reads = False

    def config(self, seed: int) -> SimConfig:
        raise NotImplementedError

    def requests(self, stack: exp_build.Stack, seed: int) -> List[Request]:
        raise NotImplementedError

    def setup(self, seed: int) -> DeviceState:
        stack = exp_build.build_stack(self.config(seed))
        ssd = stack.ssd
        return DeviceState(ssd=ssd, requests=self.requests(stack, seed))

    def serve(self, state: DeviceState) -> None:
        try:
            report = Replayer(state.ssd).replay(state.requests)
        except OutOfSpaceError:
            return
        state.served = len(report.completed)

    def evaluate(self, state: DeviceState, observer: Observer) -> Outcome:
        attempted = len(state.requests)
        completed = sum(len(v) for v in observer.latencies.values())
        unserved = attempted - completed
        if state.served is not None and not state.served == completed == attempted:
            raise CheckFailed(
                "accounting", f"{attempted} attempted, replay served {state.served}, device completed {completed}"
            )
        failed = unserved + observer.reads_without_data
        engine = _check_engine([state.ssd])
        _check_mapped(observer)
        _check_device_superblocks([state.ssd])
        sim = _latency_sim("write", observer.latencies[OpKind.WRITE])
        if self.has_reads:
            sim.update(_latency_sim("read", observer.latencies[OpKind.READ]))
        sim.update(_device_sim([state.ssd]))
        sim["failed_frac"] = (failed / attempted, attempted)
        return Outcome(
            attempted=attempted,
            failed=failed,
            sim=sim,
            counts=_device_counts([state.ssd]),
            engine=engine,
            checks=["accounting", "engine", "mapped", "superblock_lanes", "percentile_samples"],
            device_reads=observer.device_reads,
            reads_without_data=observer.reads_without_data,
        )


class DeviceZipfGc(DeviceWorkload):
    """``repro run``'s workload: sequential fill plus 1.5x zipf overwrites.

    As in ``repro run``, both streams draw arrivals from t=0 on one
    arrival process, so the replay interleaves them in time.
    """

    name = "device_zipf_gc"

    def config(self, seed: int) -> SimConfig:
        config = SimConfig.device(
            seed=_seed(seed, self.name, "device"), interarrival_us=DEVICE_INTERARRIVAL_US
        )
        workload = dataclasses.replace(
            config.workload,
            overwrite_fraction=ZIPF_OVERWRITE_FRACTION,
            fill_seed=_seed(seed, self.name, "fill"),
            overwrite_seed=_seed(seed, self.name, "overwrite"),
        )
        return config.with_(workload=workload)

    def requests(self, stack: exp_build.Stack, seed: int) -> List[Request]:
        return stack.requests()


class DeviceFaultedMixed(DeviceWorkload):
    """Steering + parity + program fails; a fill, then a 50/50 read/write mix.

    The mix starts at the fill's last arrival; its reads target pages the
    mix has written (``mixed_read_write``), so some hit the write buffer.
    """

    name = "device_faulted_mixed"
    has_reads = True

    def config(self, seed: int) -> SimConfig:
        config = SimConfig.device(
            seed=_seed(seed, self.name, "device"), interarrival_us=DEVICE_INTERARRIVAL_US
        )
        ftl = dataclasses.replace(
            exp_build.derived_ftl_config(config.geometry),
            superpage_steering=True,
            parity_protection=True,
            overprovision_ratio=FAULTED_OVERPROVISION,
        )
        return config.with_(ftl=ftl, faults=FaultPlan(program_fail_prob=FAULT_PROGRAM_PROB))

    def requests(self, stack: exp_build.Stack, seed: int) -> List[Request]:
        pages = stack.ftl.logical_pages
        arrivals = synthetic.ArrivalProcess(mean_interarrival_us=DEVICE_INTERARRIVAL_US)
        fill = synthetic.sequential_fill(pages, arrivals=arrivals, seed=_seed(seed, self.name, "fill"))
        mix = synthetic.mixed_read_write(
            pages,
            MIXED_REQUESTS,
            read_fraction=0.5,
            arrivals=arrivals,
            seed=_seed(seed, self.name, "mix"),
        )
        offset = fill[-1].time_us
        return fill + [dataclasses.replace(r, time_us=r.time_us + offset) for r in mix]


@dataclass
class FleetState:
    sim: Any
    workload: List[Any]
    registry: RecordingRegistry
    report: Any = None


class FleetOutage(Workload):
    """Four devices, two replicas; every chip of device 0 loses plane 0.

    The outage ejects device 0 and re-shards its tenants.  Survivors never
    received those tenants' earlier writes, so some reads are answered by a
    device that has no copy of the page: counted in ``failed``.
    """

    name = "fleet_outage"

    def config(self, seed: int) -> SimConfig:
        fleet = FleetConfig(
            devices=4,
            replicas=2,
            tenants=FLEET_TENANTS,
            requests_per_tenant=FLEET_REQUESTS_PER_TENANT,
            profiles=FLEET_PROFILES,
        )
        outage = FaultPlan(
            events=tuple(
                FaultEvent(kind="plane_outage", chip=chip, plane=0, at_time_us=FLEET_OUTAGE_US)
                for chip in range(4)
            )
        )
        return SimConfig.device(seed=_seed(seed, self.name, "fleet"), blocks=FLEET_BLOCKS).with_(
            fleet=fleet, faults=outage
        )

    def setup(self, seed: int) -> FleetState:
        config = self.config(seed)
        registry = RecordingRegistry()
        sim = exp_build.build_fleet(config, registry=registry)
        assert config.fleet is not None
        workload = tenants.fleet_workload(config.fleet, config.seed, sim.pages_per_tenant)
        return FleetState(sim=sim, workload=workload, registry=registry)

    def serve(self, state: FleetState) -> None:
        state.report = state.sim.run(state.workload)

    def evaluate(self, state: FleetState, observer: Observer) -> Outcome:
        report = state.report
        counters = report.summary()["counters"]
        attempted = len(state.workload)
        if not report.requests == attempted == counters["acked"] + counters["failed"]:
            raise CheckFailed(
                "accounting",
                f"{attempted} attempted, fleet saw {report.requests}, "
                f"acked {counters['acked']} + failed {counters['failed']}",
            )
        failed = counters["failed"] + observer.reads_without_data
        devices = [dev.ssd for dev in state.sim.devices]
        engine = _check_engine(devices)
        _check_mapped(observer, skip=[dev.ssd for dev in state.sim.devices if dev.ejected])
        _check_device_superblocks([dev.ssd for dev in state.sim.devices if not dev.ejected])
        samples = state.registry.recorded
        sim = _latency_sim("write", samples["fleet.write_latency_us"].values)
        sim.update(_latency_sim("read", samples["fleet.read_latency_us"].values))
        sim.update(_device_sim(devices))
        sim["failed_frac"] = (failed / attempted, attempted)
        counts = _device_counts(devices)
        hedges = counters["hedges"]
        counts.update(
            {
                "fleet.hedges": float(hedges),
                "fleet.hedge_win_frac": counters["hedge_wins"] / hedges if hedges else 0.0,
                "fleet.retries": float(counters["retries"]),
                "fleet.rejections": float(counters["rejections"]),
                "fleet.breaker_opens": float(counters["breaker_opens"]),
                "fleet.ejections": float(counters["ejections"]),
            }
        )
        return Outcome(
            attempted=attempted,
            failed=failed,
            sim=sim,
            counts=counts,
            engine=engine,
            checks=["accounting", "engine", "mapped", "superblock_lanes", "percentile_samples"],
            device_reads=observer.device_reads,
            reads_without_data=observer.reads_without_data,
        )


@dataclass
class TablesState:
    pools: List[LanePool]
    rows: Dict[str, Any] = field(default_factory=dict)


class PaperTables(Workload):
    """Tables I, II and V: probe the pools (set-up), assemble twelve ways (serve)."""

    name = "paper_tables"

    def setup(self, seed: int) -> TablesState:
        stack = exp_build.build_stack(SimConfig.testbed(seed=_seed(seed, self.name, "testbed")))
        return TablesState(pools=stack.pools())

    def serve(self, state: TablesState) -> None:
        _, state.rows = experiments.run_methods(state.pools, DIRECTIONS)

    def evaluate(self, state: TablesState, observer: Observer) -> Outcome:
        if sorted(state.rows) != sorted(DIRECTIONS):
            raise CheckFailed("accounting", f"evaluated {sorted(state.rows)}")
        if len(observer.assembled) != len(DIRECTIONS) + 1:  # + the RANDOM baseline
            raise CheckFailed("accounting", f"{len(observer.assembled)} assemblies for {len(DIRECTIONS)} directions")
        for method, superblocks, lanes in observer.assembled:
            seen: Set[Tuple[int, int, int]] = set()
            for sb in superblocks:
                keys = [m.key() for m in sb.members]
                chips = [m.chip_id for m in sb.members]
                if list(sb.lanes) != lanes or chips != lanes or seen.intersection(keys):
                    raise CheckFailed("superblock_lanes", f"{method}: superblock {keys} over lanes {lanes}")
                seen.update(keys)
        qstr = state.rows["QSTR-MED(4)"].result
        optimal = state.rows["OPTIMAL(8)"].result
        return Outcome(
            attempted=len(DIRECTIONS),
            failed=0,
            sim={"qstr_sb_extra_pgm_us": (qstr.mean_extra_program_us, qstr.superblock_count)},
            counts={
                **IDLE_COUNTS,
                "core.pair_checks": float(qstr.pair_checks),
                "assembly.optimal_combinations": float(optimal.combinations_checked),
            },
            engine="none (no device)",
            checks=["accounting", "superblock_lanes"],
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (DeviceZipfGc(), DeviceFaultedMixed(), FleetOutage(), PaperTables())
}
