"""FleetSim end-to-end: determinism, tail QoS, and graceful degradation.

Three pinned scenarios, all on the same 4-device fleet built from
``SimConfig.device(seed=7, chips=4, blocks=24)``:

* **baseline** — fault-free; every request acks and the serving trace
  lands on a pinned sha256 (the same fingerprint ``repro fleet`` prints);
* **outage** — a plane outage across every chip of device 0 at 30 ms;
  the device accumulates hard faults, is ejected, tenants re-shard, and
  *zero* requests are lost — with the p99.9 tail pinned to the fault-free
  value (hedged reads and replicas absorb the ejection);
* **storm** — simultaneous read storms on device 0; the soft-fault run
  trips the circuit breaker open and traffic steers away, again with
  zero failed requests.

The exact counter values are regression pins: any engine change that
shifts scheduling, retry, hedging or breaker behavior must show up here
as a deliberate diff.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exp import SimConfig, build_fleet
from repro.exp.sweep import Sweep, run as run_sweep
from repro.faults import FaultEvent, FaultPlan
from repro.fleet import FleetConfig, FleetSim
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import to_jsonl

BASE_FLEET = FleetConfig(
    devices=4,
    replicas=2,
    tenants=6,
    requests_per_tenant=60,
    queue_depth=16,
    hedge_min_samples=16,
)

#: read storms want read traffic on the faulted device, so the storm
#: scenario runs every tenant on the mixed profile, read-heavy, with a
#: hair-trigger breaker (two consecutive soft faults trip it).
STORM_FLEET = FleetConfig(
    **{
        **BASE_FLEET.to_dict(),
        "profiles": ("mixed",),
        "read_fraction": 0.9,
        "breaker_threshold": 2,
    }
)

OUTAGE_PLAN = FaultPlan(
    events=tuple(
        FaultEvent(kind="plane_outage", chip=chip, plane=0, at_time_us=30000.0)
        for chip in range(4)
    )
)

STORM_PLAN = FaultPlan(
    events=tuple(
        FaultEvent(
            kind="read_storm",
            chip=chip,
            at_time_us=60000.0,
            duration_ops=5,
            rber_multiplier=4.0,
        )
        for chip in range(4)
    )
)

BASELINE_SHA = "55d06f2c224fe762690165a22fd50098bf82e5b13a1ead72cec7ffd39b9418ca"
OUTAGE_SHA = "e894cf6dce3e41112d44658f41178474f4f097fcc4cf1f30c92840c49faba82b"
STORM_SHA = "abe63c041d2bf1d8a225adf2f1a29882fb7151755c0951cd430b1894648303a5"


def serve(fleet: FleetConfig, faults: FaultPlan | None = None):
    config = SimConfig.device(seed=7, chips=4, blocks=24, faults=faults).with_(
        fleet=fleet
    )
    tracer = Tracer()
    sim = build_fleet(config, tracer=tracer, registry=MetricsRegistry())
    summary = sim.run().summary()
    sha = hashlib.sha256(to_jsonl(tracer.events).encode("utf-8")).hexdigest()
    return summary, sha


@pytest.fixture(scope="module")
def baseline():
    return serve(BASE_FLEET)


@pytest.fixture(scope="module")
def outage():
    return serve(BASE_FLEET, OUTAGE_PLAN)


@pytest.fixture(scope="module")
def storm():
    return serve(STORM_FLEET, STORM_PLAN)


class TestBaseline:
    def test_every_request_acks(self, baseline):
        summary, _ = baseline
        counters = summary["counters"]
        assert summary["requests"] == 360
        assert counters["acked"] == 360
        assert counters["failed"] == 0
        assert counters["reads"] + counters["writes"] == 360
        assert counters["ejections"] == 0
        assert counters["media_faults"] == 0

    def test_trace_hits_the_pinned_fingerprint(self, baseline):
        _, sha = baseline
        assert sha == BASELINE_SHA

    def test_rerun_is_byte_identical(self, baseline):
        summary, sha = baseline
        again_summary, again_sha = serve(BASE_FLEET)
        assert again_sha == sha
        assert json.dumps(again_summary, sort_keys=True) == json.dumps(
            summary, sort_keys=True
        )

    def test_tails_come_from_registry_histograms(self, baseline):
        summary, _ = baseline
        for key in ("latency", "read_latency", "write_latency"):
            tail = summary[key]
            assert set(tail) == {
                "count", "mean", "p50", "p99", "p999", "p9999", "max",
            }
            assert tail["p50"] <= tail["p99"] <= tail["p999"] <= tail["max"]
        assert summary["latency"]["count"] == 360

    def test_per_tenant_qos_rows(self, baseline):
        summary, _ = baseline
        rows = summary["tenants"]
        assert [row["tenant"] for row in rows] == list(range(6))
        assert [row["profile"] for row in rows] == [
            "zipf", "mixed", "zipf", "mixed", "zipf", "mixed",
        ]
        assert sum(row["acked"] for row in rows) == 360
        assert all(row["failed"] == 0 for row in rows)
        assert all(row["latency"]["p50"] <= row["latency"]["p999"] for row in rows)


class TestGracefulDegradation:
    def test_outage_ejects_the_device_without_losing_requests(self, outage):
        summary, sha = outage
        counters = summary["counters"]
        # exact regression pins — see the module docstring
        assert counters["acked"] == 360
        assert counters["failed"] == 0
        assert counters["ejections"] == 1
        assert counters["media_faults"] == 4
        assert sha == OUTAGE_SHA
        dev0 = summary["devices"][0]
        assert dev0["ejected"] is True
        assert dev0["hard_faults"] == 4
        survivors = summary["devices"][1:]
        assert all(not dev["ejected"] for dev in survivors)
        # the survivors absorbed the re-sharded traffic
        assert all(dev["submissions"] > dev0["submissions"] for dev in survivors)

    def test_tail_holds_through_the_ejection(self, baseline, outage):
        # replicas + hedging keep the p99.9 tail at the fault-free value
        base_summary, _ = baseline
        outage_summary, _ = outage
        assert (
            outage_summary["latency"]["p999"]
            == base_summary["latency"]["p999"]
            == 2063.34
        )

    def test_storm_trips_the_breaker_open(self, storm):
        summary, sha = storm
        counters = summary["counters"]
        assert counters["acked"] == 360
        assert counters["failed"] == 0
        assert counters["breaker_opens"] == 1
        assert counters["media_faults"] == 2
        assert counters["ejections"] == 0
        assert sha == STORM_SHA
        dev0 = summary["devices"][0]
        assert dev0["breaker_state"] == "open"
        assert dev0["breaker_opens"] == 1
        assert dev0["ejected"] is False

    def test_hedges_fire_and_sometimes_win(self, storm):
        summary, _ = storm
        counters = summary["counters"]
        assert counters["hedges"] > 0
        assert 0 < counters["hedge_wins"] <= counters["hedges"]


class TestConstruction:
    def test_device_count_mismatch_rejected(self):
        config = SimConfig.device(seed=7, chips=4, blocks=24).with_(
            fleet=BASE_FLEET
        )
        sim = build_fleet(config)
        with pytest.raises(ValueError, match="devices"):
            FleetSim(
                BASE_FLEET,
                [dev.ssd for dev in sim.devices[:2]],
                seed=7,
                pages_per_tenant=sim.pages_per_tenant,
            )

    def test_oversubscribed_logical_space_rejected(self):
        huge = FleetConfig(**{**BASE_FLEET.to_dict(), "tenants": 10_000})
        config = SimConfig.device(seed=7, chips=4, blocks=24).with_(fleet=huge)
        with pytest.raises(ValueError):
            build_fleet(config)


class TestSweepIntegration:
    def test_fleet_cells_identical_serial_vs_parallel(self):
        small = FleetConfig(
            devices=2,
            replicas=2,
            tenants=2,
            requests_per_tenant=12,
            queue_depth=8,
            hedge_min_samples=8,
        )
        base = SimConfig.device(seed=5, chips=2, blocks=20).with_(fleet=small)

        def shas(workers: int):
            sweep = Sweep("fleet", base=base).over("seed", [5, 6])
            result = run_sweep(sweep, workers=workers, cache=None)
            assert not result.failures
            return [
                (item.cell.config_hash, item.result["trace_sha256"])
                for item in result.cells
            ]

        serial = shas(1)
        parallel = shas(2)
        assert serial == parallel
        assert len({sha for _, sha in serial}) == 2  # seeds really fork
