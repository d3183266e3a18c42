"""QstrMedScheme (runtime) and QstrMedAssembler (offline) tests."""

import numpy as np
import pytest

from repro.assembly import RandomAssembler, StrMedianAssembler, evaluate_assembler
from repro.core import QstrMedAssembler, QstrMedScheme, SpeedClass, WriteIntent, WriteSource
from repro.core.gathering import GatheringUnit
from repro.nand import SMALL_GEOMETRY


def make_record(lane, plane, block, seed):
    rng = np.random.default_rng(seed)
    g = SMALL_GEOMETRY
    matrix = rng.normal(1700, 10, size=(g.layers_per_block, g.strings_per_layer))
    return GatheringUnit(g).gather_measurement(lane, plane, block, matrix)


def make_scheme(blocks_per_lane=6, lanes=(0, 1, 2)):
    scheme = QstrMedScheme(SMALL_GEOMETRY, lanes)
    for lane in lanes:
        for block in range(blocks_per_lane):
            scheme.register_free_block(make_record(lane, 0, block, seed=lane * 100 + block))
    return scheme


class TestRuntimeScheme:
    def test_duplicate_lanes_rejected(self):
        with pytest.raises(ValueError):
            QstrMedScheme(SMALL_GEOMETRY, [0, 0])

    def test_assemble_for_intent(self):
        scheme = make_scheme()
        host = scheme.assemble_for(WriteIntent(WriteSource.HOST))
        gc = scheme.assemble_for(WriteIntent(WriteSource.GC))
        assert host.speed_class is SpeedClass.FAST
        assert gc.speed_class is SpeedClass.SLOW

    def test_free_block_accounting(self):
        scheme = make_scheme(blocks_per_lane=4)
        assert scheme.min_free_blocks() == 4
        scheme.assemble(SpeedClass.FAST)
        assert scheme.min_free_blocks() == 3
        assert all(scheme.free_blocks(lane) == 3 for lane in scheme.lanes)

    def test_regathered_record_replaces_old(self):
        scheme = make_scheme(blocks_per_lane=2, lanes=(0, 1))
        choice = scheme.assemble(SpeedClass.FAST)
        member = choice.member_for_lane(0)
        g = SMALL_GEOMETRY
        scheme.note_block_allocated(0, member.plane, member.block, pe_cycles=1)
        rng = np.random.default_rng(77)
        matrix = rng.normal(1500, 10, size=(g.layers_per_block, g.strings_per_layer))
        for lwl in range(g.lwls_per_block):
            layer, string = divmod(lwl, g.strings_per_layer)
            scheme.note_wordline_programmed(
                0, member.plane, member.block, lwl, float(matrix[layer, string])
            )
        scheme.note_block_freed(0, member.plane, member.block)
        listed = [
            r
            for r in scheme.catalog(0)
            if (r.plane, r.block) == (member.plane, member.block)
        ]
        assert len(listed) == 1
        assert listed[0].pgm_total_us == pytest.approx(matrix.sum())

    def test_freed_without_gather_reuses_old_record(self):
        scheme = make_scheme(blocks_per_lane=2, lanes=(0, 1))
        choice = scheme.assemble(SpeedClass.FAST)
        member = choice.member_for_lane(1)
        scheme.note_block_freed(1, member.plane, member.block)
        assert scheme.free_blocks(1) == 2

    def test_freed_unknown_block_raises(self):
        scheme = make_scheme()
        with pytest.raises(KeyError):
            scheme.note_block_freed(0, 1, 31)

    def test_retired_block_never_relisted(self):
        scheme = make_scheme(blocks_per_lane=2, lanes=(0, 1))
        choice = scheme.assemble(SpeedClass.FAST)
        member = choice.member_for_lane(0)
        scheme.note_block_retired(0, member.plane, member.block)
        assert scheme.free_blocks(0) == 1
        with pytest.raises(KeyError):
            scheme.note_block_freed(0, member.plane, member.block)

    def test_metadata_bytes_tracks_state(self):
        scheme = make_scheme(blocks_per_lane=2, lanes=(0, 1))
        at_rest = scheme.metadata_bytes()
        assert at_rest > 0
        scheme.assemble(SpeedClass.FAST)
        # records moved to in-use, still accounted
        assert scheme.metadata_bytes() == at_rest

    def test_pair_check_accounting(self):
        scheme = make_scheme(blocks_per_lane=5, lanes=(0, 1, 2))
        scheme.assemble(SpeedClass.FAST)
        assert scheme.total_pair_checks == 2 * 4  # (lanes-1) x depth
        assert scheme.assembled_count == 1


class TestOfflineAdapter:
    def test_valid_partition(self, small_pools):
        superblocks = QstrMedAssembler(4).assemble(small_pools)
        keys = [k for sb in superblocks for k in sb.member_keys()]
        assert len(keys) == len(set(keys))
        assert len(superblocks) == min(len(p) for p in small_pools)

    def test_pair_checks_much_smaller_than_str_med(self, small_pools):
        qstr = QstrMedAssembler(4)
        qstr.assemble(small_pools)
        str_med = StrMedianAssembler(4)
        str_med.assemble(small_pools)
        assert qstr.pair_checks < str_med.pair_checks

    def test_comparable_quality_to_str_med(self, paper_pools):
        baseline = evaluate_assembler(RandomAssembler(seed=1), paper_pools)
        qstr = evaluate_assembler(QstrMedAssembler(4), paper_pools)
        str_med = evaluate_assembler(StrMedianAssembler(4), paper_pools)
        q_imp = qstr.program_improvement_vs(baseline)
        s_imp = str_med.program_improvement_vs(baseline)
        assert q_imp > 0
        assert abs(q_imp - s_imp) < 6.0  # "equivalent capability" (Fig. 14)
