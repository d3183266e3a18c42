"""The multi-plane completion rule, on the one path that computes it.

A multi-plane command completes when its slowest member does, so its extra
latency is the max - min gap over the members (Section II-A, III-A).  The
simulator applies this rule in ``Ftl._flush_superwl`` (programs),
``Ftl._reclaim`` (erases) and ``Ssd._apply_flush`` (die occupancy); these
tests pin each against the chips' own per-member latencies.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ftl import Ftl, FtlConfig
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
from repro.obs import Tracer
from repro.ssd import Ssd, TimingConfig
from repro.workloads import OpKind, Request

LANES = 3


def build_ftl(tracer=None, seed=23):
    model = VariationModel(
        SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=seed
    )
    chips = [FlashChip(model.chip_profile(c), SMALL_GEOMETRY) for c in range(LANES)]
    config = FtlConfig(
        usable_blocks_per_plane=10,
        overprovision_ratio=0.3,
        gc_low_watermark=2,
        gc_high_watermark=3,
    )
    kwargs = {} if tracer is None else {"tracer": tracer}
    ftl = Ftl(chips, config, **kwargs)
    ftl.format()
    return ftl


def fill_and_overwrite(ftl, victims=8):
    """Sequential fill, then seeded overwrites until GC reclaimed ``victims``
    superblocks; returns every report the writes and the final drain made."""
    reports = []
    for lpn in range(ftl.logical_pages):
        reports.extend(ftl.write(lpn))
    rng = np.random.default_rng(4)
    while ftl.metrics.gc_runs < victims:
        reports.extend(ftl.write(int(rng.integers(ftl.logical_pages))))
    reports.extend(ftl.flush())
    return reports


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    ftl = build_ftl(tracer=tracer)
    victims = []
    reclaim = ftl._reclaim

    def recording_reclaim(victim):
        # snapshot the member order the erase loop walks
        victims.append(tuple(victim.members))
        reclaim(victim)

    ftl._reclaim = recording_reclaim
    reports = fill_and_overwrite(ftl)
    return SimpleNamespace(
        ftl=ftl, reports=reports, events=tracer.events, victims=victims
    )


class TestProgramCompletion:
    def test_flush_completes_at_its_slowest_member(self, traced_run):
        reports = traced_run.reports
        assert reports
        for report in reports:
            assert report.completion_us == max(report.lane_latencies_us)

    def test_flush_extra_is_slowest_minus_fastest(self, traced_run):
        reports = traced_run.reports
        for report in reports:
            latencies = report.lane_latencies_us
            assert report.extra_us == max(latencies) - min(latencies)
            assert report.extra_us >= 0.0

    def test_flush_reports_one_latency_per_lane(self, traced_run):
        reports = traced_run.reports
        for report in reports:
            assert len(report.lane_latencies_us) == LANES

    def test_slowest_and_fastest_lane_indices(self, traced_run):
        reports = traced_run.reports
        for report in reports:
            latencies = report.lane_latencies_us
            assert latencies[report.slowest_lane_index] == report.completion_us
            assert latencies[report.fastest_lane_index] == (
                report.completion_us - report.extra_us
            )

    def test_lane_latency_is_the_members_own_tprog(self):
        # each member's latency is the chip's tPROG for that very word-line,
        # so the max over them is the MP command's completion
        ftl = build_ftl()
        checked = 0
        for lpn in range(ftl.logical_pages):
            for report in ftl.write(lpn):
                sb = ftl.table.get(report.superblock_id)
                layer, string = ftl.geometry.lwl_components(report.lwl)
                for lane_index, record in enumerate(sb.members):
                    chip = ftl.chips[record.lane]
                    expected = chip.profile.program_latency(
                        record.plane,
                        record.block,
                        layer,
                        string,
                        chip.pe_cycles(record.plane, record.block),
                    )
                    assert report.lane_latencies_us[lane_index] == expected
                checked += 1
        assert ftl.metrics.gc_runs == 0  # no member was erased mid-check
        assert checked > 0

    def test_trace_attribution_matches_the_report(self, traced_run):
        # GC relocations flush too, so the returned reports are a subset of
        # the attributed programs, keyed by (superblock, word-line)
        reports, events = traced_run.reports, traced_run.events
        attributed = {
            (e.args["superblock"], e.args["lwl"]): e.args
            for e in events
            if e.name == "mp_program" and e.ph == "i"
        }
        for report in reports:
            args = attributed[(report.superblock_id, report.lwl)]
            assert args["completion_us"] == report.completion_us
            assert args["extra_us"] == report.extra_us

    def test_metrics_accumulate_every_flush_extra(self, traced_run):
        ftl, events = traced_run.ftl, traced_run.events
        extras = [
            e.args["extra_us"] for e in events if e.name == "mp_program" and e.ph == "i"
        ]
        assert ftl.metrics.extra_program_us.count == len(extras)
        assert ftl.metrics.extra_program_us.total == pytest.approx(sum(extras))


class TestEraseCompletion:
    @pytest.fixture(scope="class")
    def erases(self, traced_run):
        events = traced_run.events
        erases = [e for e in events if e.name == "mp_erase" and e.ph == "i"]
        assert erases
        return erases

    def test_erase_completes_at_its_slowest_member(self, erases):
        for event in erases:
            lanes = event.args["lane_latencies_us"]
            assert len(lanes) == LANES
            assert event.args["completion_us"] == pytest.approx(max(lanes), abs=1e-3)

    def test_erase_extra_is_slowest_minus_fastest(self, erases):
        for event in erases:
            lanes = event.args["lane_latencies_us"]
            assert event.args["extra_us"] == pytest.approx(
                max(lanes) - min(lanes), abs=2e-3
            )

    def test_erase_names_its_slowest_member(self, traced_run, erases):
        # lane latencies follow the victim's member order
        assert len(traced_run.victims) == len(erases)
        for members, event in zip(traced_run.victims, erases):
            lanes = event.args["lane_latencies_us"]
            slowest = members[lanes.index(max(lanes))]
            assert event.args["slowest"] == {
                "chip": slowest.lane,
                "plane": slowest.plane,
                "block": slowest.block,
            }

    def test_erase_metrics_record_the_slowest_member(self, traced_run, erases):
        ftl = traced_run.ftl
        metrics = ftl.metrics
        assert metrics.superblocks_erased == len(erases)
        assert metrics.erase_us.count == len(erases)
        assert metrics.erase_us.total == pytest.approx(
            sum(e.args["completion_us"] for e in erases)
        )
        assert metrics.extra_erase_us.count == len(erases)


class TestDieOccupancy:
    @pytest.fixture()
    def ssd_and_report(self):
        ftl = build_ftl()
        ssd = Ssd(ftl, TimingConfig(channels=2))
        reports = []
        lpn = 0
        while not reports:
            reports = ftl.write(lpn)
            lpn += 1
        return ssd, reports[0]

    def transfer_us(self, ssd):
        return ssd._page_transfer_us * ssd.ftl.geometry.bits_per_cell

    def test_flush_holds_every_die_for_the_slowest_member(self, ssd_and_report):
        ssd, report = ssd_and_report
        now = 1000.0
        completion = ssd._apply_flush(report, now)
        transfer = self.transfer_us(ssd)
        # lanes 0 and 2 share channel 0, so lane 2's data lands second
        landed = {0: now + transfer, 1: now + transfer, 2: now + 2 * transfer}
        for lane, die in ssd.dies.items():
            assert die.busy_until_us == pytest.approx(
                landed[lane] + report.completion_us
            )
        assert completion == pytest.approx(now + 2 * transfer + report.completion_us)

    def test_repair_time_extends_only_its_lane(self, ssd_and_report):
        ssd, report = ssd_and_report
        repaired = dataclasses.replace(report, repairs=1, repair_us=(0.0, 50.0, 0.0))
        now = 1000.0
        ssd._apply_flush(repaired, now)
        transfer = self.transfer_us(ssd)
        assert ssd.dies[0].busy_until_us == pytest.approx(
            now + transfer + report.completion_us
        )
        assert ssd.dies[1].busy_until_us == pytest.approx(
            now + transfer + report.completion_us + 50.0
        )

    def test_host_write_waits_for_the_slowest_member(self):
        ssd = Ssd(build_ftl(), TimingConfig(channels=2))
        host_writes = ssd.ftl.metrics.host_write_us
        lpn = 0
        while host_writes.count == 0:
            done = ssd.submit(Request(time_us=0.0, op=OpKind.WRITE, lpn=lpn))
            lpn += 1
        # the write that fired the flush finishes no earlier than the MP
        # program's completion, i.e. its slowest member
        assert done.latency_us >= host_writes.maximum
