"""End-to-end observability guarantees.

Two promises the tracing subsystem makes:

* determinism — two same-seed traced runs emit byte-identical JSONL logs
  and a valid, time-ordered Chrome trace;
* neutrality — attaching a tracer/registry never changes simulation
  results (no RNG draws, no reordering): traced and untraced runs produce
  identical FTL metrics.
"""

import json

import pytest

from repro.ftl import Ftl, FtlConfig
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.obs.export import to_chrome, to_jsonl
from repro.obs.report import TraceSummary, render_report
from repro.ssd import Ssd, TimingConfig
from repro.workloads import OpKind, Request


def run_workload(tracer=None, registry=None, seed=41):
    """A small fill + overwrite + read workload, GC-inducing and seeded."""
    model = VariationModel(
        SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=seed
    )
    chips = [FlashChip(model.chip_profile(c), SMALL_GEOMETRY) for c in range(3)]
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=10,
            overprovision_ratio=0.3,
            gc_low_watermark=2,
            gc_high_watermark=3,
        ),
        tracer=tracer if tracer is not None else NULL_TRACER,
        registry=registry,
    )
    ftl.format()
    ssd = Ssd(ftl, TimingConfig(channels=2))
    t = 0.0
    pages = ftl.logical_pages
    for i in range(pages):
        ssd.submit(Request(time_us=t, op=OpKind.WRITE, lpn=i))
        t += 50.0
    for i in range(pages):  # overwrite: invalidations + GC traffic
        ssd.submit(Request(time_us=t, op=OpKind.WRITE, lpn=(i * 7) % pages))
        t += 50.0
    for i in range(0, pages, 3):
        ssd.submit(Request(time_us=t, op=OpKind.READ, lpn=i))
        t += 20.0
    return ssd


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self):
        first, second = Tracer(), Tracer()
        run_workload(tracer=first)
        run_workload(tracer=second)
        assert len(first.events) > 100
        assert to_jsonl(first.events) == to_jsonl(second.events)

    def test_different_seed_differs(self):
        first, second = Tracer(), Tracer()
        run_workload(tracer=first, seed=41)
        run_workload(tracer=second, seed=42)
        assert to_jsonl(first.events) != to_jsonl(second.events)


class TestNeutrality:
    def test_tracing_never_changes_results(self):
        untraced = run_workload()
        traced = run_workload(tracer=Tracer(), registry=MetricsRegistry())
        assert untraced.ftl.metrics.summary() == traced.ftl.metrics.summary()
        assert untraced.utilization() == traced.utilization()
        assert (
            untraced.metrics.write_latency_us.summary()
            == traced.metrics.write_latency_us.summary()
        )


class TestChromeExport:
    def test_valid_and_time_ordered(self):
        tracer = Tracer()
        run_workload(tracer=tracer)
        document = json.loads(json.dumps(to_chrome(tracer.events)))
        rows = document["traceEvents"]
        assert rows, "empty Chrome trace"
        data_rows = [row for row in rows if row["ph"] != "M"]
        timestamps = [row["ts"] for row in data_rows]
        assert timestamps == sorted(timestamps)
        for row in data_rows:
            if row["ph"] == "X":
                assert row["dur"] >= 0.0
        # Every track got a thread_name metadata record.
        meta_tids = {row["tid"] for row in rows if row["ph"] == "M"}
        assert {row["tid"] for row in data_rows} <= meta_tids

    def test_attribution_names_slowest_member(self):
        tracer = Tracer()
        run_workload(tracer=tracer)
        attributions = [
            e for e in tracer.events if e.name == "mp_program" and e.ph == "i"
        ]
        assert attributions, "no MP attribution events recorded"
        for event in attributions:
            slowest = event.args["slowest"]
            assert {"chip", "plane", "block"} <= set(slowest)
            assert event.args["extra_us"] >= 0.0
            lanes = event.args["lane_latencies_us"]
            assert event.args["extra_us"] == pytest.approx(
                max(lanes) - min(lanes), abs=1e-2
            )


class TestRegistryWiring:
    def test_phase_counters_and_timelines(self):
        registry = MetricsRegistry()
        ssd = run_workload(tracer=Tracer(), registry=registry)
        snapshot = registry.snapshot(elapsed_us=ssd.metrics.last_finish_us)
        assert snapshot["qstr_gather_reports"] > 0
        assert snapshot["qstr_assemblies"] > 0
        assert snapshot["qstr_block_allocations"] > 0
        # Die/channel utilizations come from the attached timelines and
        # agree with the clocks' own accounting.
        for name, value in ssd.utilization().items():
            assert snapshot[f"{name}_utilization"] == pytest.approx(value)


class TestReport:
    def test_summary_and_render(self):
        tracer = Tracer()
        run_workload(tracer=tracer)
        summary = TraceSummary(tracer.events)
        assert summary.total_events == len(tracer.events)
        assert summary.elapsed_us > 0
        offenders = summary.top_offenders("mp_program", limit=5)
        assert offenders
        label, stat = offenders[0]
        assert label.startswith("chip")
        assert stat.total >= stat.mean
        text = render_report(summary)
        assert "extra-latency attribution" in text
        assert "superpage_program" in text
