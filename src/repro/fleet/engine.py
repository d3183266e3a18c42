"""The fleet serving engine: a deterministic, sim-time event loop.

:class:`FleetSim` shards tenants across N pre-built :class:`~repro.ssd.device.Ssd`
devices and drives the merged tenant arrival sequence through a single
event heap keyed ``(time_us, seq)`` — the monotonically increasing ``seq``
pins a total order even between simultaneous events, so two runs of the
same config pop, dispatch and account in exactly the same order.

The robustness machinery, all in simulated time:

* **bounded queues / admission control** — a device with ``queue_depth``
  requests in flight rejects new work; rejected requests back off
  (seed-jittered exponential, via ``derive_seed``) and retry;
* **deadlines + retry** — an attempt whose service exceeds ``deadline_us``
  counts a miss and redispatches (bounded by ``max_retries``); the ack is
  the earliest completion any attempt achieved;
* **hedged reads** — once a device has ``hedge_min_samples`` observed read
  services, a read exceeding that device's ``hedge_quantile`` fires a
  second read at a replica; the ack takes the faster of the two;
* **circuit breaker** — per device, fed by injected-fault deltas from
  ``repro.faults`` counters and by hard device errors; an open breaker
  steers traffic to replicas until its cooldown probes half-open;
* **graceful degradation** — a device that throws a fatal error
  (out-of-space / repair-exhausted after a plane outage) or accumulates
  ``eject_hard_faults`` hard media faults is permanently ejected and its
  tenants re-shard onto the survivors; in-flight completions stand, so no
  acknowledged request is ever lost.

Every latency lands in ``repro.obs`` histograms inside the shared
:class:`~repro.obs.registry.MetricsRegistry` (fleet-wide, per-op,
per-tenant and per-device), which is where the report's p50/p99/p99.9/
p99.99 and per-tenant QoS come from — no ad-hoc statistics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.config import FleetConfig
from repro.fleet.tenants import TenantRequest, fleet_workload, tenant_profile
from repro.ftl.ftl import IntegrityError, OutOfSpaceError, RepairExhaustedError
from repro.nand.errors import FlashError
from repro.obs.histograms import LatencyStat
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.ssd.device import Ssd
from repro.utils.rng import derive_seed
from repro.workloads.model import OpKind, Request

#: Device errors the fleet treats as an immediately fatal device condition.
FATAL_ERRORS = (OutOfSpaceError, RepairExhaustedError)

#: Device errors the fleet absorbs as a failed attempt (retried elsewhere).
DEVICE_ERRORS = (OutOfSpaceError, RepairExhaustedError, IntegrityError, FlashError)


class _RequestState:
    """Mutable serving state of one logical fleet request."""

    __slots__ = (
        "tenant",
        "index",
        "op",
        "lpn",
        "pages",
        "arrival_us",
        "attempts",
        "deadline_retries",
        "best_completion_us",
        "hedged",
        "acked",
        "failed",
    )

    def __init__(self, tr: TenantRequest, lpn: int) -> None:
        self.tenant = tr.tenant
        self.index = tr.index
        self.op = tr.request.op
        self.lpn = lpn
        self.pages = tr.request.pages
        self.arrival_us = tr.request.time_us
        self.attempts = 0
        self.deadline_retries = 0
        self.best_completion_us: Optional[float] = None
        self.hedged = False
        self.acked = False
        self.failed = False


class _DeviceState:
    """One fleet member: the device plus its serving-side bookkeeping."""

    __slots__ = (
        "index",
        "ssd",
        "breaker",
        "ejected",
        "hard_faults",
        "submissions",
        "read_service",
        "_inflight",
        "_injectors",
        "_seen_faults",
    )

    def __init__(
        self, index: int, ssd: Ssd, breaker: CircuitBreaker, read_service: LatencyStat
    ) -> None:
        self.index = index
        self.ssd = ssd
        self.breaker = breaker
        self.ejected = False
        self.hard_faults = 0
        self.submissions = 0
        #: observed read service times (a registry LatencyStat) — the hedge
        #: threshold is this histogram's configured quantile.
        self.read_service = read_service
        self._inflight: List[float] = []
        # Injectors are fixed when the chips are built; most devices have none.
        self._injectors = tuple(
            chip.injector for chip in ssd.ftl.chips.values() if chip.injector.enabled
        )
        self._seen_faults = (0, 0, 0, 0)

    @property
    def name(self) -> str:
        return f"dev{self.index}"

    def inflight(self, now_us: float) -> int:
        while self._inflight and self._inflight[0] <= now_us:
            heapq.heappop(self._inflight)
        return len(self._inflight)

    def note_inflight(self, finish_us: float) -> None:
        heapq.heappush(self._inflight, finish_us)

    def fault_totals(self) -> Tuple[int, int, int, int]:
        prog = erase = storm = outage = 0
        for injector in self._injectors:
            prog += injector.injected_program_fails
            erase += injector.injected_erase_fails
            storm += injector.injected_read_storms
            outage += injector.injected_plane_outages
        return (prog, erase, storm, outage)

    def fault_deltas(self) -> Tuple[int, int, int, int]:
        if not self._injectors:
            return (0, 0, 0, 0)
        totals = self.fault_totals()
        deltas = tuple(t - s for t, s in zip(totals, self._seen_faults))
        self._seen_faults = totals
        return deltas  # type: ignore[return-value]


@dataclass
class FleetReport:
    """Everything one fleet run produced, sourced from the shared registry."""

    fleet: FleetConfig
    seed: int
    requests: int
    elapsed_us: float
    registry: MetricsRegistry
    tenants: List[Dict[str, Any]]
    devices: List[Dict[str, Any]]

    def _tail(self, stat: LatencyStat) -> Dict[str, float]:
        if stat.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                    "p999": 0.0, "p9999": 0.0, "max": 0.0}
        return {
            "count": stat.count,
            "mean": round(stat.mean, 3),
            "p50": round(stat.quantile(0.50), 3),
            "p99": round(stat.quantile(0.99), 3),
            "p999": round(stat.quantile(0.999), 3),
            "p9999": round(stat.quantile(0.9999), 3),
            "max": round(stat.maximum, 3),
        }

    def counter(self, name: str) -> int:
        return self.registry.counter(f"fleet.{name}").value

    def latency(self, which: str = "latency_us") -> Dict[str, float]:
        return self._tail(self.registry.histogram(f"fleet.{which}"))

    def summary(self) -> Dict[str, Any]:
        """The canonical JSON document (``repro fleet --summary``)."""
        counters = {
            name: self.counter(name)
            for name in (
                "acked",
                "failed",
                "reads",
                "writes",
                "hedges",
                "hedge_wins",
                "retries",
                "rejections",
                "forced_dispatches",
                "deadline_misses",
                "breaker_opens",
                "ejections",
                "media_faults",
                "device_errors",
            )
        }
        counters["unmapped_reads"] = sum(row["unmapped_reads"] for row in self.devices)
        return {
            "fleet": self.fleet.to_dict(),
            "seed": self.seed,
            "requests": self.requests,
            "elapsed_us": round(self.elapsed_us, 3),
            "counters": counters,
            "latency": self.latency("latency_us"),
            "read_latency": self.latency("read_latency_us"),
            "write_latency": self.latency("write_latency_us"),
            "tenants": self.tenants,
            "devices": self.devices,
        }


class FleetSim:
    """Shard tenants over pre-built devices and serve their merged stream.

    The devices are built elsewhere (``repro.exp.build.build_fleet`` derives
    one per-device :class:`SimConfig` each, seeded
    ``derive_seed(seed, "fleet", "device", i)``); the engine only *serves*.
    ``pages_per_tenant`` is the tenant slice width — every device maps
    tenant ``t`` to LPNs ``[t * width, (t + 1) * width)``, so re-sharding a
    tenant to another device never renumbers its pages.
    """

    def __init__(
        self,
        fleet: FleetConfig,
        devices: Sequence[Ssd],
        *,
        seed: int,
        pages_per_tenant: int,
        tracer: Optional[NullTracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if len(devices) != fleet.devices:
            raise ValueError(
                f"fleet config wants {fleet.devices} devices, got {len(devices)}"
            )
        if pages_per_tenant < 1:
            raise ValueError("pages_per_tenant must be >= 1")
        needed = fleet.tenants * pages_per_tenant
        for index, ssd in enumerate(devices):
            if ssd.ftl.logical_pages < needed:
                raise ValueError(
                    f"device {index} has {ssd.ftl.logical_pages} logical pages; "
                    f"{fleet.tenants} tenants x {pages_per_tenant} need {needed}"
                )
        self.fleet = fleet
        self.seed = seed
        self.pages_per_tenant = pages_per_tenant
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = MetricsRegistry() if registry is None else registry
        self.devices = [
            _DeviceState(
                index,
                ssd,
                CircuitBreaker(
                    fleet.breaker_threshold,
                    fleet.breaker_window_us,
                    fleet.breaker_cooldown_us,
                ),
                self.registry.histogram(f"fleet.dev{index}.read_service_us"),
            )
            for index, ssd in enumerate(devices)
        ]
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._tenant_writes: Dict[Tuple[int, int], int] = {}
        self._max_attempts = fleet.max_retries + fleet.devices + 2
        self._elapsed_us = 0.0
        self._requests = 0
        #: the devices not ejected, in index order (``_eject`` rebuilds it)
        self._survivors: List[_DeviceState] = list(self.devices)
        # Registry entries bound on first use, so the registry still creates
        # them in serving order and hands back whatever object it chose.
        self._counters: Dict[Any, Counter] = {}
        self._histograms: Dict[Any, LatencyStat] = {}

    # -- small helpers -----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(f"fleet.{name}")
        counter.inc(amount)

    def _tenant_count(self, tenant: int, name: str) -> None:
        key = (tenant, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.registry.counter(
                f"fleet.tenant{tenant:03d}.{name}"
            )
        counter.inc()

    def _latency(self, name: str) -> LatencyStat:
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = self.registry.histogram(f"fleet.{name}")
        return stat

    def _tenant_latency(self, tenant: int) -> LatencyStat:
        stat = self._histograms.get(tenant)
        if stat is None:
            stat = self._histograms[tenant] = self.registry.histogram(
                f"fleet.tenant{tenant:03d}.latency_us"
            )
        return stat

    _DISPATCH = 0
    _HEDGE = 1

    def _push(self, time_us: float, kind: int, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, kind, payload))

    def _candidates(self, tenant: int) -> List[_DeviceState]:
        """The tenant's current replica set (primary first)."""
        healthy = self._survivors
        if not healthy:
            return []
        width = min(self.fleet.replicas, len(healthy))
        return [healthy[(tenant + k) % len(healthy)] for k in range(width)]

    def _usable(self, dev: _DeviceState, now_us: float) -> bool:
        return (
            not dev.ejected
            and dev.breaker.allow(now_us)
            and dev.inflight(now_us) < self.fleet.queue_depth
        )

    def _backoff_us(self, req: _RequestState, attempt: int) -> float:
        """Seed-stable jittered exponential backoff (sim-time µs)."""
        jitter = (
            derive_seed(self.seed, "fleet", "retry", req.tenant, req.index, attempt)
            % 1024
        )
        exponent = min(attempt - 1, 6)
        return self.fleet.backoff_us * (2.0 ** exponent) * (1.0 + jitter / 4096.0)

    def _hedge_threshold(self, dev: _DeviceState) -> Optional[float]:
        if dev.read_service.count < self.fleet.hedge_min_samples:
            return None
        return dev.read_service.quantile(self.fleet.hedge_quantile)

    # -- device outcome accounting -----------------------------------------

    def _feed_breaker(self, dev: _DeviceState, now_us: float, failed: bool) -> None:
        opens_before = dev.breaker.opens
        if failed:
            dev.breaker.record_failure(now_us)
        else:
            dev.breaker.record_success(now_us)
        if dev.breaker.opens > opens_before:
            self._count("breaker_opens")
            if self.tracer.enabled:
                self.tracer.instant(
                    "breaker_open",
                    "fleet.breaker",
                    ts_us=now_us,
                    track="fleet",
                    device=dev.index,
                    hard_faults=dev.hard_faults,
                )

    def _note_outcome(self, dev: _DeviceState, now_us: float) -> None:
        """Fold the device's injected-fault deltas into breaker/eject state."""
        d_prog, d_erase, d_storm, d_outage = dev.fault_deltas()
        observed = d_prog + d_erase + d_storm + d_outage
        if observed:
            self._count("media_faults", observed)
        hard = d_erase + d_outage
        self._feed_breaker(dev, now_us, failed=bool(observed))
        if hard:
            dev.hard_faults += hard
            if dev.hard_faults >= self.fleet.eject_hard_faults:
                self._eject(dev, now_us, reason="hard_faults")

    def _on_device_error(
        self, dev: _DeviceState, now_us: float, error: Exception
    ) -> None:
        self._count("device_errors")
        dev.fault_deltas()  # absorb the injector counters behind the error
        dev.hard_faults += 1
        self._feed_breaker(dev, now_us, failed=True)
        if self.tracer.enabled:
            self.tracer.instant(
                "device_error",
                "fleet.fault",
                ts_us=now_us,
                track="fleet",
                device=dev.index,
                error=type(error).__name__,
            )
        if isinstance(error, FATAL_ERRORS) or (
            dev.hard_faults >= self.fleet.eject_hard_faults
        ):
            self._eject(dev, now_us, reason=type(error).__name__)

    def _eject(self, dev: _DeviceState, now_us: float, reason: str) -> None:
        if dev.ejected:
            return
        dev.ejected = True
        self._survivors = [d for d in self.devices if not d.ejected]
        self._count("ejections")
        if self.tracer.enabled:
            self.tracer.instant(
                "device_ejected",
                "fleet.fault",
                ts_us=now_us,
                track="fleet",
                device=dev.index,
                reason=reason,
                hard_faults=dev.hard_faults,
            )
            self.tracer.instant(
                "fleet_resharded",
                "fleet.shard",
                ts_us=now_us,
                track="fleet",
                healthy=[d.index for d in self._survivors],
            )

    # -- submission --------------------------------------------------------

    def _submit(
        self, dev: _DeviceState, req: _RequestState, now_us: float
    ) -> Optional[float]:
        """One attempt on one device; ``None`` means the device errored."""
        dev.breaker.begin_probe()
        request = Request(time_us=now_us, op=req.op, lpn=req.lpn, pages=req.pages)
        try:
            completed = dev.ssd.submit(request)
        except DEVICE_ERRORS as error:
            self._on_device_error(dev, now_us, error)
            return None
        dev.submissions += 1
        self._note_outcome(dev, now_us)
        dev.note_inflight(completed.finish_us)
        return completed.finish_us

    # -- the event loop ----------------------------------------------------

    def run(self, workload: Optional[Sequence[TenantRequest]] = None) -> FleetReport:
        """Serve ``workload`` (default: the config's generated streams)."""
        if workload is None:
            workload = fleet_workload(self.fleet, self.seed, self.pages_per_tenant)
        states: List[_RequestState] = []
        for tr in workload:
            lpn = tr.tenant * self.pages_per_tenant + tr.request.lpn
            state = _RequestState(tr, lpn)
            states.append(state)
            self._push(tr.request.time_us, self._DISPATCH, state)
        self._requests = len(states)
        self._count("requests", len(states))
        while self._heap:
            now_us, _, kind, payload = heapq.heappop(self._heap)
            self.tracer.advance(now_us)
            if kind == self._DISPATCH:
                self._dispatch(payload, now_us)
            else:
                self._resolve_hedge(payload, now_us)
        unresolved = [s for s in states if not s.acked and not s.failed]
        assert not unresolved, f"{len(unresolved)} requests left unresolved"
        return self._report()

    def _dispatch(self, req: _RequestState, now_us: float) -> None:
        req.attempts += 1
        candidates = self._candidates(req.tenant)
        if not candidates:
            self._fail(req, now_us)
            return
        if req.op is OpKind.WRITE:
            self._dispatch_write(req, now_us, candidates)
        else:
            self._dispatch_read(req, now_us, candidates)

    def _dispatch_write(
        self, req: _RequestState, now_us: float, candidates: List[_DeviceState]
    ) -> None:
        usable = [dev for dev in candidates if self._usable(dev, now_us)]
        if not usable:
            self._reject(req, now_us)
            return
        completions: List[float] = []
        for dev in usable:
            completion = self._submit(dev, req, now_us)
            if completion is not None:
                completions.append(completion)
                key = (req.tenant, dev.index)
                self._tenant_writes[key] = self._tenant_writes.get(key, 0) + 1
        if not completions:
            self._retry_after_fault(req, now_us)
            return
        # Replicated write: the ack waits for every replica that took it.
        self._after_attempt(req, now_us, max(completions))

    def _dispatch_read(
        self, req: _RequestState, now_us: float, candidates: List[_DeviceState]
    ) -> None:
        with_data = [
            dev
            for dev in candidates
            if self._tenant_writes.get((req.tenant, dev.index), 0) > 0
        ]
        order = with_data or candidates
        usable = [dev for dev in order if self._usable(dev, now_us)]
        if not usable:
            self._reject(req, now_us)
            return
        # Rotate the primary by attempt so a retry lands on a different
        # replica than the one that just missed its deadline.
        primary = usable[(req.attempts - 1) % len(usable)]
        completion = self._submit(primary, req, now_us)
        if completion is None:
            self._retry_after_fault(req, now_us)
            return
        service = completion - now_us
        primary.read_service.add(service)
        threshold = self._hedge_threshold(primary)
        can_hedge = (
            self.fleet.replicas > 1
            and threshold is not None
            and service > threshold
        )
        if can_hedge:
            req.hedged = True
            self._count("hedges")
            if self.tracer.enabled:
                self.tracer.instant(
                    "hedge_fired",
                    "fleet.hedge",
                    ts_us=now_us + (threshold or 0.0),
                    track="fleet",
                    tenant=req.tenant,
                    primary=primary.index,
                    primary_service_us=round(service, 3),
                )
            payload = (req, now_us, completion, primary.index)
            self._push(now_us + (threshold or 0.0), self._HEDGE, payload)
        else:
            self._after_attempt(req, now_us, completion)

    def _resolve_hedge(
        self,
        payload: Tuple[_RequestState, float, float, int],
        now_us: float,
    ) -> None:
        req, dispatched_us, primary_completion, primary_index = payload
        candidates = [
            dev
            for dev in self._candidates(req.tenant)
            if dev.index != primary_index
            and self._tenant_writes.get((req.tenant, dev.index), 0) > 0
            and self._usable(dev, now_us)
        ]
        if not candidates:
            self._after_attempt(req, dispatched_us, primary_completion)
            return
        hedge_completion = self._submit(candidates[0], req, now_us)
        if hedge_completion is not None and hedge_completion < primary_completion:
            self._count("hedge_wins")
            self._after_attempt(req, dispatched_us, hedge_completion)
        else:
            self._after_attempt(req, dispatched_us, primary_completion)

    def _after_attempt(
        self, req: _RequestState, dispatched_us: float, completion_us: float
    ) -> None:
        if (
            req.best_completion_us is None
            or completion_us < req.best_completion_us
        ):
            req.best_completion_us = completion_us
        service = completion_us - dispatched_us
        if service > self.fleet.deadline_us:
            self._count("deadline_misses")
            self._tenant_count(req.tenant, "deadline_misses")
            if req.deadline_retries < self.fleet.max_retries:
                req.deadline_retries += 1
                self._count("retries")
                retry_at = (
                    dispatched_us
                    + self.fleet.deadline_us
                    + self._backoff_us(req, req.attempts)
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fleet_retry",
                        "fleet.retry",
                        ts_us=retry_at,
                        track="fleet",
                        tenant=req.tenant,
                        index=req.index,
                        attempt=req.attempts,
                        service_us=round(service, 3),
                    )
                self._push(retry_at, self._DISPATCH, req)
                return
        self._ack(req, req.best_completion_us)

    def _reject(self, req: _RequestState, now_us: float) -> None:
        """Admission control said no everywhere: back off, then force."""
        self._count("rejections")
        if req.attempts < self._max_attempts:
            retry_at = now_us + self._backoff_us(req, req.attempts)
            if self.tracer.enabled:
                self.tracer.instant(
                    "fleet_reject",
                    "fleet.queue",
                    ts_us=now_us,
                    track="fleet",
                    tenant=req.tenant,
                    index=req.index,
                    attempt=req.attempts,
                )
            self._push(retry_at, self._DISPATCH, req)
            return
        healthy = self._survivors
        if not healthy:
            self._fail(req, now_us)
            return
        # Out of patience: never drop an admitted request — force it onto
        # the least-loaded survivor past the queue bound.
        self._count("forced_dispatches")
        dev = min(healthy, key=lambda d: (d.inflight(now_us), d.index))
        completion = self._submit(dev, req, now_us)
        if completion is None:
            self._retry_after_fault(req, now_us)
            return
        if req.op is OpKind.WRITE:
            key = (req.tenant, dev.index)
            self._tenant_writes[key] = self._tenant_writes.get(key, 0) + 1
        self._after_attempt(req, now_us, completion)

    def _retry_after_fault(self, req: _RequestState, now_us: float) -> None:
        if req.attempts >= self._max_attempts or not self._survivors:
            self._fail(req, now_us)
            return
        self._push(
            now_us + self._backoff_us(req, req.attempts), self._DISPATCH, req
        )

    def _ack(self, req: _RequestState, completion_us: Optional[float]) -> None:
        assert completion_us is not None
        req.acked = True
        latency = completion_us - req.arrival_us
        self._elapsed_us = max(self._elapsed_us, completion_us)
        self._count("acked")
        self._tenant_count(req.tenant, "acked")
        self._latency("latency_us").add(latency)
        self._tenant_latency(req.tenant).add(latency)
        if req.op is OpKind.READ:
            self._count("reads")
            self._latency("read_latency_us").add(latency)
        else:
            self._count("writes")
            self._latency("write_latency_us").add(latency)
        if self.tracer.enabled:
            self.tracer.complete(
                "fleet_request",
                "fleet.request",
                req.arrival_us,
                latency,
                track="fleet",
                tenant=req.tenant,
                index=req.index,
                op=req.op.name,
                attempts=req.attempts,
                hedged=req.hedged,
            )

    def _fail(self, req: _RequestState, now_us: float) -> None:
        """Negative-ack: the request is resolved, never silently dropped."""
        req.failed = True
        self._elapsed_us = max(self._elapsed_us, now_us)
        self._count("failed")
        self._tenant_count(req.tenant, "failed")
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet_request_failed",
                "fleet.request",
                ts_us=now_us,
                track="fleet",
                tenant=req.tenant,
                index=req.index,
                attempts=req.attempts,
            )

    # -- reporting ---------------------------------------------------------

    def _report(self) -> FleetReport:
        tenants: List[Dict[str, Any]] = []
        for tenant in range(self.fleet.tenants):
            prefix = f"fleet.tenant{tenant:03d}"
            stat = self.registry.histogram(f"{prefix}.latency_us")
            row: Dict[str, Any] = {
                "tenant": tenant,
                "profile": tenant_profile(self.fleet, tenant),
                "acked": self.registry.counter(f"{prefix}.acked").value,
                "failed": self.registry.counter(f"{prefix}.failed").value,
                "deadline_misses": self.registry.counter(
                    f"{prefix}.deadline_misses"
                ).value,
            }
            if stat.count:
                row["latency"] = {
                    "mean": round(stat.mean, 3),
                    "p50": round(stat.quantile(0.50), 3),
                    "p99": round(stat.quantile(0.99), 3),
                    "p999": round(stat.quantile(0.999), 3),
                }
            tenants.append(row)
        devices: List[Dict[str, Any]] = []
        for dev in self.devices:
            devices.append(
                {
                    "device": dev.index,
                    "submissions": dev.submissions,
                    "ejected": dev.ejected,
                    "hard_faults": dev.hard_faults,
                    "breaker_state": dev.breaker.state,
                    "breaker_opens": dev.breaker.opens,
                    "unmapped_reads": dev.ssd.ftl.metrics.unmapped_reads,
                }
            )
        return FleetReport(
            fleet=self.fleet,
            seed=self.seed,
            requests=self._requests,
            elapsed_us=self._elapsed_us,
            registry=self.registry,
            tenants=tenants,
            devices=devices,
        )
