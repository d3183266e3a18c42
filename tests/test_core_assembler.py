"""On-demand QSTR-MED assembler tests."""

import pytest

from repro.core.assembler import AssemblyError, OnDemandAssembler, SpeedClass
from repro.core.catalog import BlockCatalog
from repro.core.records import BlockRecord, closest_candidate
from repro.utils.bitvec import BitVector


def record(lane, block, pgm, bits):
    return BlockRecord(lane, 0, block, float(pgm), BitVector(bits))


def build_catalogs():
    """Three lanes with known latencies and eigens.

    Lane 0 holds the globally fastest block (pgm 100) with eigen 1100;
    lanes 1/2 each have one head-4 candidate with a matching eigen.
    """
    catalogs = [BlockCatalog(lane) for lane in range(3)]
    eigens = {
        "match": [1, 1, 0, 0],
        "near": [1, 0, 0, 0],
        "far": [0, 0, 1, 1],
    }
    catalogs[0].add(record(0, 0, 100, eigens["match"]))
    catalogs[0].add(record(0, 1, 500, eigens["far"]))
    catalogs[0].add(record(0, 2, 600, eigens["far"]))
    for lane in (1, 2):
        catalogs[lane].add(record(lane, 0, 200, eigens["far"]))
        catalogs[lane].add(record(lane, 1, 210, eigens["near"]))
        catalogs[lane].add(record(lane, 2, 220, eigens["match"]))
    return catalogs


class TestConstruction:
    def test_needs_two_lanes(self):
        with pytest.raises(ValueError):
            OnDemandAssembler([BlockCatalog(0)])

    def test_duplicate_lanes(self):
        with pytest.raises(ValueError):
            OnDemandAssembler([BlockCatalog(0), BlockCatalog(0)])

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            OnDemandAssembler([BlockCatalog(0), BlockCatalog(1)], candidate_depth=0)


class TestFastAssembly:
    def test_reference_is_global_fastest(self):
        assembler = OnDemandAssembler(build_catalogs(), candidate_depth=4)
        choice = assembler.assemble(SpeedClass.FAST)
        assert choice.reference_lane == 0
        assert choice.member_for_lane(0).block == 0

    def test_candidates_chosen_by_eigen_distance(self):
        assembler = OnDemandAssembler(build_catalogs(), candidate_depth=4)
        choice = assembler.assemble(SpeedClass.FAST)
        # lanes 1 and 2 must pick the "match" eigen (block 2), not their
        # fastest block (block 0, "far" eigen)
        assert choice.member_for_lane(1).block == 2
        assert choice.member_for_lane(2).block == 2

    def test_depth_limits_candidates(self):
        # with depth 1 only the head is considered: latency order wins
        assembler = OnDemandAssembler(build_catalogs(), candidate_depth=1)
        choice = assembler.assemble(SpeedClass.FAST)
        assert choice.member_for_lane(1).block == 0

    def test_pair_check_count(self):
        assembler = OnDemandAssembler(build_catalogs(), candidate_depth=3)
        choice = assembler.assemble(SpeedClass.FAST)
        # 2 other lanes x 3 candidates
        assert choice.pair_checks == 6
        assert assembler.total_pair_checks == 6
        assert assembler.assembled_count == 1

    def test_members_consumed(self):
        catalogs = build_catalogs()
        assembler = OnDemandAssembler(catalogs, candidate_depth=4)
        choice = assembler.assemble(SpeedClass.FAST)
        for member in choice.members:
            assert member not in catalogs[member.lane]

    def test_member_for_lane_missing(self):
        assembler = OnDemandAssembler(build_catalogs())
        choice = assembler.assemble(SpeedClass.FAST)
        with pytest.raises(KeyError):
            choice.member_for_lane(99)


class TestSlowAssembly:
    def test_reference_is_global_slowest(self):
        assembler = OnDemandAssembler(build_catalogs(), candidate_depth=4)
        choice = assembler.assemble(SpeedClass.SLOW)
        assert choice.reference_lane == 0
        assert choice.member_for_lane(0).block == 2  # pgm 600


class TestExhaustion:
    def test_can_assemble_and_errors(self):
        catalogs = build_catalogs()
        assembler = OnDemandAssembler(catalogs, candidate_depth=4)
        assert assembler.can_assemble()
        for _ in range(3):
            assembler.assemble(SpeedClass.FAST)
        assert not assembler.can_assemble()
        with pytest.raises(AssemblyError):
            assembler.assemble(SpeedClass.FAST)

    def test_release_restores(self):
        catalogs = build_catalogs()
        assembler = OnDemandAssembler(catalogs, candidate_depth=4)
        choice = assembler.assemble(SpeedClass.FAST)
        assembler.release(choice.members)
        assert assembler.can_assemble()
        assert len(catalogs[0]) == 3

    def test_drain_consumes_everything(self):
        catalogs = build_catalogs()
        assembler = OnDemandAssembler(catalogs, candidate_depth=4)
        seen = set()
        while assembler.can_assemble():
            choice = assembler.assemble(SpeedClass.FAST)
            for member in choice.members:
                key = member.key()
                assert key not in seen
                seen.add(key)
        assert len(seen) == 9


class TestClosestCandidate:
    """The eigen pair check every QSTR-MED chooser shares."""

    def test_picks_least_xor_distance(self):
        reference = record(0, 0, 100, [1, 1, 0, 0])
        candidates = [
            record(1, 0, 200, [0, 0, 1, 1]),  # distance 4
            record(1, 1, 210, [1, 0, 0, 0]),  # distance 1
            record(1, 2, 220, [1, 0, 1, 0]),  # distance 2
        ]
        assert closest_candidate(reference, candidates) is candidates[1]

    def test_first_of_equally_close_wins(self):
        # catalog order breaks ties, so the faster block is kept
        reference = record(0, 0, 100, [1, 1, 0, 0])
        candidates = [
            record(1, 0, 200, [0, 0, 1, 1]),
            record(1, 1, 210, [1, 0, 0, 0]),
            record(1, 2, 220, [0, 1, 0, 0]),
        ]
        assert closest_candidate(reference, candidates) is candidates[1]
        assert closest_candidate(reference, candidates[::-1]) is candidates[2]

    def test_no_candidates_raises(self):
        with pytest.raises(ValueError, match="no candidates"):
            closest_candidate(record(0, 0, 100, [1, 0]), [])

    def test_assembler_runs_it_for_every_other_lane(self):
        catalogs = build_catalogs()
        reference = catalogs[0].fastest()
        expected = {
            lane: closest_candidate(reference, catalogs[lane].head_candidates(4))
            for lane in (1, 2)
        }
        choice = OnDemandAssembler(catalogs, candidate_depth=4).assemble(SpeedClass.FAST)
        for lane, member in expected.items():
            assert choice.member_for_lane(lane) is member
