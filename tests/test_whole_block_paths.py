"""Differential tests: the whole-block paths against per-word-line oracles.

``FlashChip.program_block``, ``GatheringUnit.gather_measurement`` and the
burn-in in ``Ftl.format`` each do in one call what used to take one call
per word-line, and one STR-median kernel now computes every eigen bit.
The per-word-line loops (and a plain-Python STR-median rule) survive here
as oracles, and every simulated result must match them exactly:
latencies, block totals and eigen sequences bit for bit, chip and
injector state, free lists and the superpage predictor.

Each property runs over a pinned band of seeds, and every assertion
message carries the reproducing seed: feed it back into the generator and
the exact inputs come back.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.assembly.signatures import str_median_bits
from repro.core.gathering import GatheringError, GatheringUnit
from repro.exp import SimConfig, build_stack
from repro.faults import FaultEvent, FaultPlan
from repro.faults.injector import FaultInjector, make_injector
from repro.ftl import Ftl, FtlConfig, WearLevelingConfig
from repro.ftl.allocator import QstrAllocator
from repro.nand import (
    SMALL_GEOMETRY,
    FlashChip,
    NandGeometry,
    PageType,
    VariationModel,
    VariationParams,
)
from repro.nand.chip import OpStatus
from repro.nand.errors import BadBlockError, EnduranceExceededError, FlashError

FUZZ_SEEDS = range(300, 340)


# -- oracles -------------------------------------------------------------------


def program_block_oracle(chip, plane, block):
    """``program_wordline`` from the next LWL to the last, up to the first FAIL."""
    latencies = []
    for lwl in range(chip.programmed_lwls(plane, block), chip.geometry.lwls_per_block):
        result = chip.program_wordline(plane, block, lwl)
        if not result.ok:
            return latencies, OpStatus.FAIL
        latencies.append(result.latency_us)
    return latencies, OpStatus.OK


def gather_oracle(unit, lane, plane, block, matrix, pe_cycles):
    """``open_block`` plus one ``report`` per word-line in LWL order."""
    unit.open_block(lane, plane, block, pe_cycles)
    record = None
    for lwl, latency in enumerate(np.asarray(matrix, dtype=float).reshape(-1)):
        record = unit.report(lane, plane, block, lwl, float(latency))
    return record


def format_oracle(ftl):
    """The per-word-line burn-in ``Ftl.format`` replaced."""
    gatherer = GatheringUnit(ftl.geometry)
    for lane, chip in ftl.chips.items():
        for plane in range(ftl.config.planes_used):
            for block in range(ftl.config.usable_blocks_per_plane):
                if chip.is_bad(plane, block):
                    continue
                try:
                    if not chip.erase_block(plane, block).ok:
                        continue
                    gatherer.open_block(lane, plane, block, chip.pe_cycles(plane, block))
                    record = None
                    latencies = []
                    for lwl in range(ftl.geometry.lwls_per_block):
                        result = chip.program_wordline(plane, block, lwl)
                        if not result.ok:
                            record = None
                            break
                        latencies.append(result.latency_us)
                        record = gatherer.report(lane, plane, block, lwl, result.latency_us)
                    if record is None or not chip.erase_block(plane, block).ok:
                        gatherer.abandon_block(lane, plane, block)
                        continue
                except EnduranceExceededError:
                    gatherer.abandon_block(lane, plane, block)
                    continue
                ftl.allocator.register_free(record)
                if ftl.predictor is not None:
                    for lwl, latency in enumerate(latencies):
                        ftl.predictor.observe(lane, lwl, latency, record.eigen[lwl])
    ftl._formatted = True


# -- state snapshots -------------------------------------------------------------


def chip_state(chip):
    blocks = {
        key: (
            state.pe_cycles,
            state.erased,
            state.next_lwl,
            state.retired,
            state.programmed_at_hours,
            dict(state.pages),
        )
        for key, state in chip._blocks.items()
    }
    return blocks, chip.grown_bad_blocks, injector_state(chip.injector)


def injector_state(injector):
    if not isinstance(injector, FaultInjector):
        return None
    state = {
        name: getattr(injector, name)
        for name in FaultInjector.__slots__
        if name not in ("_program_rng", "_erase_rng", "_pending", "_dead_planes")
    }
    state["pending"] = list(injector._pending)
    state["dead_planes"] = sorted(injector._dead_planes)
    for name in ("_program_rng", "_erase_rng"):
        rng = getattr(injector, name)
        state[name] = None if rng is None else rng.bit_generator.state
    return state


# -- FlashChip.program_block ---------------------------------------------------------


def _random_plan(rng, chip_id):
    events = []
    if rng.random() < 0.5:
        events.append(
            FaultEvent(
                kind="plane_outage",
                chip=chip_id,
                plane=int(rng.integers(0, 2)),
                at_op=int(rng.integers(0, 200)),
            )
        )
    for _ in range(int(rng.integers(0, 3))):
        events.append(
            FaultEvent(kind="program_fail", chip=chip_id, at_op=int(rng.integers(0, 200)))
        )
    return FaultPlan(
        program_fail_prob=float(rng.choice([0.0, 0.002, 0.02, 0.1])),
        erase_fail_prob=float(rng.choice([0.0, 0.05])),
        events=tuple(events),
    )


def _chip_pair(seed):
    """Two identical faulted chips (same profile, same plan and seed)."""
    rng = np.random.default_rng(seed)
    params = VariationParams(factory_bad_ratio=0.1, endurance_cycles=40, endurance_sigma_log=0.0)
    model = VariationModel(SMALL_GEOMETRY, params, seed=seed)
    plan = _random_plan(rng, chip_id=0)

    def make():
        return FlashChip(
            model.chip_profile(0), SMALL_GEOMETRY, injector=FaultInjector(plan, seed, 0)
        )

    return rng, make(), make()


def _run_both(fn_a, fn_b):
    """Run two calls; both must return or both raise the same error type."""
    outcomes = []
    for fn in (fn_a, fn_b):
        try:
            outcomes.append(("ok", fn()))
        except FlashError as error:
            outcomes.append(("raised", type(error)))
    return outcomes


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_program_block_matches_the_wordline_loop(seed):
    rng, chip, oracle = _chip_pair(seed)
    lwls = SMALL_GEOMETRY.lwls_per_block
    for step in range(60):
        plane = int(rng.integers(0, 2))
        block = int(rng.integers(0, 6))
        op = rng.choice(["erase", "partial", "bake", "block", "block"])
        if op == "erase":
            outcomes = _run_both(
                lambda: chip.erase_block(plane, block), lambda: oracle.erase_block(plane, block)
            )
            assert outcomes[0] == outcomes[1], f"erase diverged at step {step} (seed={seed})"
        elif op == "partial":
            # leave the block part-programmed (the same calls on both chips)
            count = int(rng.integers(1, lwls))
            for target in (chip, oracle):
                for _ in range(count):
                    lwl = target.programmed_lwls(plane, block)
                    if lwl >= lwls:
                        break
                    try:
                        result = target.program_wordline(
                            plane, block, lwl, {PageType.LSB: (block, lwl)}
                        )
                    except FlashError:
                        break
                    if not result.ok:
                        break
        elif op == "bake":
            hours = float(rng.integers(1, 50))
            chip.bake(hours)
            oracle.bake(hours)
        else:
            got, want = _run_both(
                lambda: chip.program_block(plane, block),
                lambda: program_block_oracle(oracle, plane, block),
            )
            assert got[0] == want[0], (
                f"program_block {got} vs oracle {want} at step {step} (seed={seed})"
            )
            if got[0] == "ok":
                result = got[1]
                latencies, status = want[1]
                assert result.status is status, f"status at step {step} (seed={seed})"
                assert result.latencies_us.tolist() == latencies, (
                    f"latencies at step {step} (seed={seed})"
                )
                assert not result.latencies_us.flags.writeable, f"seed={seed}"
            else:
                assert got[1] is want[1], f"error type at step {step} (seed={seed})"
        assert chip_state(chip) == chip_state(oracle), (
            f"chip/injector state diverged after {op} at step {step} (seed={seed})"
        )


def test_program_block_reports_a_program_fail_and_retires_the_block():
    model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=5)
    plan = FaultPlan(events=(FaultEvent(kind="program_fail", chip=0, at_op=7),))
    chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY, injector=FaultInjector(plan, 5, 0))
    chip.erase_block(0, 1)
    result = chip.program_block(0, 1)
    assert not result.ok
    assert len(result.latencies_us) == 7  # LWLs 0-6 committed, LWL 7 failed
    assert chip.programmed_lwls(0, 1) == 7
    assert chip.is_bad(0, 1) and chip.grown_bad_blocks == 1
    with pytest.raises(BadBlockError):
        chip.program_block(0, 1)


def test_program_block_on_a_dead_plane_fails_without_retiring():
    model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=5)
    plan = FaultPlan(events=(FaultEvent(kind="plane_outage", chip=0, plane=0, at_op=3),))
    chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY, injector=FaultInjector(plan, 5, 0))
    chip.erase_block(0, 1)  # total op 1
    # LWL 0 is op 2; the outage arms during LWL 1 (op 3), which still
    # commits, and LWL 2 finds the plane dead
    result = chip.program_block(0, 1)
    assert result.status is OpStatus.FAIL
    assert len(result.latencies_us) == chip.programmed_lwls(0, 1) == 2
    assert not chip.is_bad(0, 1) and chip.grown_bad_blocks == 0


def test_program_block_of_a_full_block_is_empty_and_ok():
    model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=5)
    chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
    chip.erase_block(0, 0)
    assert len(chip.program_block(0, 0).latencies_us) == SMALL_GEOMETRY.lwls_per_block
    again = chip.program_block(0, 0)
    assert again.ok and len(again.latencies_us) == 0


# -- the one STR-median kernel -------------------------------------------------------------


def str_median_oracle(row, fast_slots):
    """One layer's speed bits by the paper's rule, in plain Python."""
    order = sorted(range(len(row)), key=lambda string: row[string])  # stable
    bits = [1] * len(row)
    for string in order[:fast_slots]:
        bits[string] = 0
    return bits


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_str_median_kernel_matches_the_rule(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 7, size=int(rng.integers(1, 4))))
    values = rng.uniform(1000.0, 4000.0, shape)
    if rng.random() < 0.5:
        values = np.round(values, -2)  # coarse grid: many exact ties
    strings = shape[-1]
    fast_slots = None if rng.random() < 0.5 else int(rng.integers(0, strings + 1))
    bits = str_median_bits(values, fast_slots)
    assert bits.shape == shape and bits.dtype == np.uint16, f"seed={seed}"
    want = strings // 2 if fast_slots is None else fast_slots
    for index in np.ndindex(shape[:-1]):
        assert bits[index].tolist() == str_median_oracle(values[index].tolist(), want), (
            f"layer {index} (seed={seed})"
        )


# -- GatheringUnit.gather_measurement ------------------------------------------------------


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_gather_measurement_matches_the_report_loop(seed):
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(1, 13))
    strings = int(rng.integers(1, 8))  # odd string counts included
    geometry = NandGeometry(
        planes_per_chip=1, blocks_per_plane=4, layers_per_block=layers, strings_per_layer=strings
    )
    delivered = ([], [])
    bulk = GatheringUnit(geometry, delivered[0].append)
    loop = GatheringUnit(geometry, delivered[1].append)
    for block in range(4):
        matrix = rng.uniform(1000.0, 4000.0, (layers, strings))
        if rng.random() < 0.5:
            matrix = np.round(matrix, -2)  # coarse grid: many exact ties
        pe = int(rng.integers(0, 3000))
        got = bulk.gather_measurement(1, 0, block, matrix, pe)
        want = gather_oracle(loop, 1, 0, block, matrix, pe)
        assert got.pgm_total_us.hex() == want.pgm_total_us.hex(), f"total (seed={seed})"
        assert got.eigen == want.eigen, f"eigen (seed={seed})"
        assert got == want, f"record (seed={seed})"
    assert delivered[0] == delivered[1] == bulk.completed == loop.completed, f"seed={seed}"
    assert bulk.open_count == loop.open_count == 0, f"seed={seed}"


def test_gather_measurement_rejects_an_open_block_and_a_wrong_shape():
    unit = GatheringUnit(SMALL_GEOMETRY)
    shape = (SMALL_GEOMETRY.layers_per_block, SMALL_GEOMETRY.strings_per_layer)
    unit.open_block(0, 0, 1)
    with pytest.raises(GatheringError):
        unit.gather_measurement(0, 0, 1, np.ones(shape))
    with pytest.raises(ValueError):
        unit.gather_measurement(0, 0, 2, np.ones(SMALL_GEOMETRY.lwls_per_block))
    assert not unit.is_open(0, 0, 2)


# -- Ftl.format ------------------------------------------------------------------------------


def _free_lists(ftl):
    allocator = ftl.allocator
    if isinstance(allocator, QstrAllocator):
        return {lane: list(allocator.scheme.catalog(lane)) for lane in ftl.lanes}
    return {lane: list(allocator._free[lane]) for lane in ftl.lanes}


def _predictor_state(ftl):
    predictor = ftl.predictor
    if predictor is None:
        return None
    return (
        {
            name: {lane: array.tobytes() for lane, array in getattr(predictor, name).items()}
            for name in ("_sum", "_count", "_bit_sum", "_bit_count")
        },
        predictor.observations,
    )


def _ftl_pair(seed, faults, steering, parity, wear):
    rng = np.random.default_rng(seed)
    params = VariationParams(
        factory_bad_ratio=0.1,
        endurance_cycles=int(rng.choice([2, 3, 3000])),
        endurance_sigma_log=0.0,
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=seed)
    plans = [
        FaultPlan(
            program_fail_prob=0.01,
            erase_fail_prob=0.02,
            events=(
                FaultEvent(
                    kind="plane_outage",
                    chip=chip_id,
                    plane=1,
                    at_op=int(rng.integers(40, 400)),
                ),
            ),
        )
        if faults
        else None
        for chip_id in range(3)
    ]
    config = FtlConfig(
        usable_blocks_per_plane=12,
        planes_used=2,
        overprovision_ratio=0.4,
        superpage_steering=steering,
        parity_protection=parity,
        wear_leveling=WearLevelingConfig(pe_gap_threshold=8) if wear else None,
    )
    allocator = str(rng.choice(["qstr", "sequential"]))

    def make():
        chips = [
            FlashChip(
                model.chip_profile(chip_id),
                SMALL_GEOMETRY,
                injector=make_injector(plans[chip_id], seed, chip_id),
            )
            for chip_id in range(3)
        ]
        if seed % 2:
            for chip in chips:  # one block per chip arrives worn and part-programmed
                block = next(b for b in range(12) if not chip.is_bad(0, b))
                chip.erase_block(0, block)
                chip.program_wordline(0, block, 0)
        return Ftl(chips, config, allocator_kind=allocator, seed=seed)

    return make(), make()


FORMAT_MATRIX = list(itertools.product((False, True), repeat=4))


@pytest.mark.parametrize("faults,steering,parity,wear", FORMAT_MATRIX)
@pytest.mark.parametrize("seed", (11, 12, 13))
def test_format_matches_the_per_wordline_burn_in(seed, faults, steering, parity, wear):
    ftl, oracle = _ftl_pair(seed, faults, steering, parity, wear)
    ftl.format()
    format_oracle(oracle)
    where = f"(seed={seed}, faults={faults}, steering={steering}, parity={parity}, wear={wear})"
    got, want = _free_lists(ftl), _free_lists(oracle)
    assert got == want, f"free lists {where}"
    for lane in ftl.lanes:
        for a, b in zip(got[lane], want[lane]):
            assert a.pgm_total_us.hex() == b.pgm_total_us.hex(), f"totals {where}"
    assert _predictor_state(ftl) == _predictor_state(oracle), f"predictor {where}"
    for lane in ftl.lanes:
        assert chip_state(ftl.chips[lane]) == chip_state(oracle.chips[lane]), (
            f"chip {lane} state {where}"
        )


def test_format_matrix_exercises_failures():
    """The faulted half of the matrix really loses blocks to FAILs."""
    ftl, _ = _ftl_pair(11, True, False, False, False)
    ftl.format()
    injectors = [chip.injector for chip in ftl.chips.values()]
    assert sum(i.injected_program_fails for i in injectors) > 0
    assert sum(i.injected_erase_fails for i in injectors) > 0
    assert sum(i.injected_plane_outages for i in injectors) > 0


# -- faulted probing (the grown-bad-block skip) ------------------------------------------------


def _faulted_testbed():
    return SimConfig.testbed(
        seed=3, pool_blocks=40, faults=FaultPlan(program_fail_prob=0.0005)
    )


def test_faulted_probing_skips_each_grown_bad_block():
    stack = build_stack(_faulted_testbed())
    pools = stack.pools()
    fired = 0
    for pool, chip in zip(pools, stack.chips):
        factory_bad = sum(chip.profile.is_factory_bad(0, block) for block in range(40))
        fails = chip.injector.injected_program_fails
        fired += fails
        assert 40 - len(pool.blocks) == factory_bad + fails, f"lane {pool.lane}"
        assert all(not chip.is_bad(0, m.block) for m in pool.blocks)
    assert fired > 0


def test_faulted_probing_is_deterministic():
    def snapshot():
        return [
            [(m.key(), m.wl_latencies_us.tobytes(), m.erase_latency_us) for m in pool.blocks]
            for pool in build_stack(_faulted_testbed()).pools()
        ]

    assert snapshot() == snapshot()


def test_probe_block_raises_on_a_failed_block_and_try_probe_block_skips_it():
    from repro.characterization import Prober

    def prober():
        model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=5)
        plan = FaultPlan(
            events=(FaultEvent(kind="program_fail", chip=0, block=2, at_time_us=0.0),)
        )
        return Prober(
            FlashChip(model.chip_profile(0), SMALL_GEOMETRY, injector=FaultInjector(plan, 5, 0))
        )

    skipping = prober()
    probed = [skipping.try_probe_block(0, block) for block in range(4)]
    assert [m.block for m in probed if m is not None] == [0, 1, 3]
    assert probed[2] is None
    raising = prober()
    assert [raising.probe_block(0, block).block for block in range(2)] == [0, 1]
    with pytest.raises(BadBlockError, match="p0/b2"):
        raising.probe_block(0, 2)


def test_faulted_sweep_cell_completes(capsys):
    from repro.cli import main

    argv = [
        "sweep",
        "--blocks", "16",
        "--chips", "2",
        "--seed", "3",
        "--methods", "SEQUENTIAL,QSTR-MED(4)",
        "--faults", "program=0.002",
        "--workers", "1",
        "--cache-dir", "none",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 cells, 0 cache hits, 1 misses (workers=1)" in out
    assert "FAILED" not in out
