"""FTL-level fault recovery: repairs, degraded modes, parity double faults."""

import pytest

from repro.faults import FaultPlan, make_injector
from repro.ftl import Ftl, FtlConfig, IntegrityError
from repro.nand import (
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    VariationModel,
    VariationParams,
)
from repro.policy import PolicyConfig, resolve_policies

STRONG_ECC = EccConfig()
#: stress level that saturates RBER -> every read on that lane fails
DEAD_PE = 15_000


def build_ftl(
    plan=None,
    *,
    weak_lanes=(),
    lanes=3,
    seed=61,
    blocks=24,
    parity=True,
    repair="repair.qstr",
):
    params = VariationParams(
        factory_bad_ratio=0.0, endurance_cycles=100_000, endurance_sigma_log=0.0
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=seed)
    chips = []
    for lane in range(lanes):
        chip = FlashChip(
            model.chip_profile(lane),
            SMALL_GEOMETRY,
            ecc=EccEngine(STRONG_ECC, SMALL_GEOMETRY),
            injector=make_injector(plan, seed, lane),
        )
        if lane in weak_lanes:
            for block in range(blocks):
                chip.stress_block(0, block, DEAD_PE)
        chips.append(chip)
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=blocks,
            overprovision_ratio=0.5,
            gc_low_watermark=2,
            gc_high_watermark=3,
            parity_protection=parity,
            max_repair_attempts=8,
        ),
        policies=resolve_policies(PolicyConfig(repair=repair)),
    )
    ftl.format()
    return ftl


def write_rounds(ftl, rounds):
    """Sequentially (re)write the whole logical space ``rounds`` times."""
    reports = []
    for _ in range(rounds):
        for lpn in range(ftl.logical_pages):
            reports.extend(ftl.write(lpn))
    reports.extend(ftl.flush())
    return reports


class TestProgramFailRepair:
    def test_repair_path_end_to_end(self):
        plan = FaultPlan(program_fail_prob=0.004)
        ftl = build_ftl(plan)
        reports = write_rounds(ftl, 2)
        metrics = ftl.metrics

        assert metrics.program_failures > 0
        assert metrics.sb_repairs > 0
        assert metrics.blocks_retired >= metrics.sb_repairs
        assert metrics.repair_copy_us.count == metrics.sb_repairs
        # every super word-line on a repaired superblock feeds the
        # degradation metric the repair policy controls
        assert metrics.post_repair_extra_us.count > 0
        # chips agree: grown-bad accounting matches what the FTL retired
        assert sum(c.grown_bad_blocks for c in ftl.chips.values()) > 0
        # zero data loss: every logical page is still readable
        for lpn in range(ftl.logical_pages):
            assert ftl.read(lpn).located

    def test_flush_reports_carry_repair_accounting(self):
        plan = FaultPlan(program_fail_prob=0.004)
        ftl = build_ftl(plan)
        reports = write_rounds(ftl, 2)
        repaired = [r for r in reports if r.repairs]
        assert repaired, "no flush hit the repair path"
        for report in repaired:
            assert len(report.repair_us) == len(report.lane_latencies_us)
            assert sum(report.repair_us) > 0.0
        assert all(r.repair_us == () for r in reports if not r.repairs)

    def test_metrics_summary_exposes_fault_keys_only_when_active(self):
        clean = build_ftl()
        write_rounds(clean, 1)
        assert "program_failures" not in clean.metrics.summary()

        faulted = build_ftl(FaultPlan(program_fail_prob=0.004))
        write_rounds(faulted, 2)
        summary = faulted.metrics.summary()
        assert summary["program_failures"] > 0
        assert summary["sb_repairs"] > 0
        assert "post_repair_extra_mean_us" in summary

    def test_both_repair_policies_absorb_the_same_schedule(self):
        results = {}
        for policy in ("qstr", "random"):
            ftl = build_ftl(
                FaultPlan(program_fail_prob=0.004), repair=f"repair.{policy}"
            )
            write_rounds(ftl, 2)
            for lpn in range(ftl.logical_pages):
                assert ftl.read(lpn).located
            results[policy] = ftl.metrics
        # the injected schedule is seed-derived, not policy-derived
        assert (
            results["qstr"].program_failures
            == results["random"].program_failures
            > 0
        )

    def test_determinism_under_injection(self):
        def run():
            ftl = build_ftl(FaultPlan(program_fail_prob=0.004))
            write_rounds(ftl, 2)
            return ftl.metrics.summary()

        assert run() == run()


class TestEraseFailDegradation:
    def test_erase_fail_counts_and_degrades(self):
        plan = FaultPlan(erase_fail_prob=0.04)
        ftl = build_ftl(plan)
        # overwrite pressure so GC reclaims (and its erases can fail)
        write_rounds(ftl, 4)
        metrics = ftl.metrics
        assert metrics.erase_failures > 0
        assert metrics.superblocks_degraded > 0
        for lpn in range(ftl.logical_pages):
            assert ftl.read(lpn).located


class TestPlaneOutageDegradation:
    """A whole-plane outage degrades the FTL instead of corrupting it.

    Losing one of two planes halves a lane's pool, so full-capacity
    service cannot continue forever — degradation means the dead plane is
    purged from the allocator (never drafted again), every already-written
    page stays readable (dead-plane rows come back via parity), and a
    bounded working set keeps writing.

    The outage strikes chip 0 at one of two ops.  ``format()`` runs chip
    0's first 680 ops, so op 200 kills the plane before any data lands on
    it and the repair copies nothing.  The fill runs ops 681-936, so op 870
    kills it under written data: the repair copies 30 word-lines back, and
    every copy-back and read-back of a dead-plane row goes through parity.
    """

    #: outage op -> parity reconstructions after the fill / after read-back
    RECONSTRUCTIONS = {200: (0, 0), 870: (90, 282)}
    #: traced JSONL sha256 of the op-870 stack through fill, overwrites and
    #: read-back; it pins the repair's copy-back reads
    MID_FILL_TRACE_SHA = (
        "add31d72d26105b4879de29a8ea5555ce85bd4ac01e517150dfa7bf86b8a9adc"
    )

    @pytest.fixture(params=[200, 870], ids=["in-format", "mid-fill"])
    def outage_op(self, request):
        return request.param

    def build(self, outage_op, tracer=None):
        from repro.faults import KIND_PLANE_OUTAGE, FaultEvent
        from repro.obs import Tracer

        plan = FaultPlan(
            events=[
                FaultEvent(
                    kind=KIND_PLANE_OUTAGE, chip=0, plane=0, at_op=outage_op
                )
            ]
        )
        params = VariationParams(
            factory_bad_ratio=0.0,
            endurance_cycles=100_000,
            endurance_sigma_log=0.0,
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=61)
        chips = [
            FlashChip(
                model.chip_profile(lane),
                SMALL_GEOMETRY,
                ecc=EccEngine(STRONG_ECC, SMALL_GEOMETRY),
                injector=make_injector(plan, 61, lane),
            )
            for lane in range(3)
        ]
        ftl = Ftl(
            chips,
            FtlConfig(
                usable_blocks_per_plane=10,
                planes_used=2,
                overprovision_ratio=0.6,
                gc_low_watermark=2,
                gc_high_watermark=3,
                parity_protection=True,
                max_repair_attempts=8,
            ),
            tracer=tracer if tracer is not None else Tracer(),
        )
        ftl.format()
        return ftl

    def overwrite_and_read_back(self, ftl):
        # bounded hot-set overwrites keep flowing in degraded mode
        hot = ftl.buffer.superwl_pages * 2
        for _ in range(3):
            for lpn in range(hot):
                ftl.write(lpn)
        ftl.flush()
        # zero data loss: dead-plane rows reconstruct from parity
        for lpn in range(ftl.logical_pages):
            assert ftl.read(lpn).located

    def test_outage_purges_the_plane_and_loses_nothing(self, outage_op):
        ftl = self.build(outage_op)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        ftl.flush()
        metrics = ftl.metrics
        assert metrics.plane_purges == 1
        assert metrics.program_failures >= 1
        assert metrics.sb_repairs >= 1
        # an outage is degradation, not a retirement storm: only the
        # repair's failed member was retired
        assert metrics.blocks_retired == metrics.sb_repairs
        after_fill, after_read_back = self.RECONSTRUCTIONS[outage_op]
        assert metrics.parity_reconstructions == after_fill
        self.overwrite_and_read_back(ftl)
        assert metrics.parity_reconstructions == after_read_back

    def test_outage_emits_the_degraded_mode_trace_events(self, outage_op):
        from repro.obs import Tracer

        tracer = Tracer()
        ftl = self.build(outage_op, tracer=tracer)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        ftl.flush()
        names = [event.name for event in tracer.events]
        assert "fault_injected" in names
        assert "sb_repaired" in names
        assert "degraded_mode" in names
        degraded = next(
            e for e in tracer.events if e.name == "degraded_mode"
        )
        assert degraded.args["reason"] == "plane_outage"
        assert degraded.args["purged_free_blocks"] > 0

    def test_mid_fill_outage_trace_is_pinned(self):
        import hashlib

        from repro.obs import Tracer
        from repro.obs.export import to_jsonl

        tracer = Tracer()
        ftl = self.build(870, tracer=tracer)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        ftl.flush()
        (repaired,) = [e for e in tracer.events if e.name == "sb_repaired"]
        assert repaired.args["copied_lwls"] == 30
        self.overwrite_and_read_back(ftl)
        digest = hashlib.sha256(to_jsonl(tracer.events).encode()).hexdigest()
        assert digest == self.MID_FILL_TRACE_SHA


class TestParityDoubleFailures:
    """Satellite coverage of _reconstruct's three failure paths.

    Superblock members are NOT lane-sorted (the allocator orders them by
    catalog), so these tests locate a flushed page whose member/parity/peer
    lanes have the wear pattern each path needs.
    """

    def fill(self, ftl):
        for lpn in range(ftl.buffer.superwl_pages * 3):
            ftl.write(lpn)
        ftl.flush()

    def find_lpn(self, ftl, weak, *, parity_weak, peer_weak=None):
        """An LPN on a weak data member with the requested row geometry."""
        for lpn in range(ftl.logical_pages):
            slot = ftl.mapper.lookup(lpn)
            if slot is None:
                continue
            sb = ftl.table.get(slot.superblock_id)
            location = sb.slot_location(slot.slot)
            if sb.members[location.lane_index].lane not in weak:
                continue
            if (sb.members[sb.parity_lane_index].lane in weak) != parity_weak:
                continue
            peers = [
                sb.members[i].lane
                for i in range(sb.data_lane_count)
                if i != location.lane_index
            ]
            if peer_weak is not None and any(
                lane in weak for lane in peers
            ) != peer_weak:
                continue
            return lpn, slot, sb
        raise AssertionError("no flushed page with the requested geometry")

    def test_data_and_parity_unreadable(self):
        # every lane dead: the degraded read finds no parity row to lean on
        weak = (0, 1, 2)
        ftl = build_ftl(weak_lanes=weak)
        self.fill(ftl)
        lpn, _, _ = self.find_lpn(ftl, weak, parity_weak=True)
        with pytest.raises(IntegrityError, match="data and parity unreadable"):
            ftl.read(lpn)

    def test_peer_lane_unreadable_during_reconstruction(self):
        # the parity row is fine, but a surviving data lane fails mid-rebuild
        weak = (0, 1)
        ftl = build_ftl(weak_lanes=weak, lanes=4)
        self.fill(ftl)
        lpn, _, _ = self.find_lpn(ftl, weak, parity_weak=False, peer_weak=True)
        with pytest.raises(
            IntegrityError, match="double failure during reconstruction"
        ):
            ftl.read(lpn)

    def test_malformed_parity_payload(self):
        weak = (0,)
        ftl = build_ftl(weak_lanes=weak)
        self.fill(ftl)
        lpn, slot, sb = self.find_lpn(ftl, weak, parity_weak=False)
        location = sb.slot_location(slot.slot)
        parity = sb.members[sb.parity_lane_index]
        parity_chip = ftl.chips[parity.lane]
        pages = parity_chip._state(parity.plane, parity.block).pages
        pages[(location.lwl, location.page_type)] = "garbage"
        with pytest.raises(IntegrityError, match="parity page at"):
            ftl.read(lpn)


class TestZeroDataLossUnderFaultStorm:
    TARGET_FAULTS = 110

    @staticmethod
    def injected(ftl):
        return sum(
            chip.injector.injected_program_fails
            + chip.injector.injected_erase_fails
            for chip in ftl.chips.values()
        )

    def test_hundred_plus_faults_lose_nothing(self):
        # Each injected program/erase fail retires a block forever, so the
        # pool must hold ~TARGET_FAULTS spares: 8 lanes x 2 planes x 24
        # blocks at 0.55 OP leaves ~170 drafts before any lane runs dry.
        # The write loop is cut as soon as the target is crossed — the cut
        # point is seed-deterministic because the injectors are.
        plan = FaultPlan(program_fail_prob=0.005, erase_fail_prob=0.003)
        params = VariationParams(
            factory_bad_ratio=0.0,
            endurance_cycles=100_000,
            endurance_sigma_log=0.0,
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=61)
        chips = [
            FlashChip(
                model.chip_profile(lane),
                SMALL_GEOMETRY,
                ecc=EccEngine(STRONG_ECC, SMALL_GEOMETRY),
                injector=make_injector(plan, 61, lane),
            )
            for lane in range(8)
        ]
        ftl = Ftl(
            chips,
            FtlConfig(
                usable_blocks_per_plane=24,
                planes_used=2,
                overprovision_ratio=0.55,
                gc_low_watermark=2,
                gc_high_watermark=4,
                parity_protection=True,
                max_repair_attempts=8,
            ),
        )
        ftl.format()
        done = False
        for _ in range(12):
            for lpn in range(ftl.logical_pages):
                ftl.write(lpn)
                if lpn % 512 == 0 and self.injected(ftl) >= self.TARGET_FAULTS:
                    done = True
                    break
            if done:
                break
        ftl.flush()

        total = self.injected(ftl)
        assert total >= 100, f"only {total} faults injected"
        assert ftl.metrics.sb_repairs > 0
        # zero data loss: every logical page survived the storm
        for lpn in range(ftl.logical_pages):
            assert ftl.read(lpn).located
