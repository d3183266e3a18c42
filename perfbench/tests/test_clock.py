"""Drift normalization."""

import statistics
import time

import pytest

from perfbench import clock
from perfbench.clock import DriftClock, normalize


def test_normalization_divides_out_a_synthetic_slowdown():
    ref = clock.REFERENCE_SLICE_S
    work_cpu_s = 2.0
    baseline = normalize(work_cpu_s, [ref] * 20, [])
    for slowdown in (0.8, 1.3, 2.0):
        # the same work and the calibration loop both take `slowdown` times longer
        slowed = normalize(work_cpu_s * slowdown, [ref * slowdown] * 20, [])
        assert slowed == pytest.approx(baseline)
    assert baseline == pytest.approx(work_cpu_s)


def test_each_stretch_is_rescaled_by_its_own_slice():
    ref = clock.REFERENCE_SLICE_S
    # half the phase ran at full speed, half at half speed
    slices = [ref] * 10 + [ref * 2] * 10
    assert normalize(3.0, slices, []) == pytest.approx(3.0 * 0.75)


def test_short_phase_borrows_the_run_slices():
    ref = clock.REFERENCE_SLICE_S
    few = [ref * 3] * (clock.MIN_PHASE_SLICES - 1)
    assert normalize(1.0, few, [ref * 2] * 50) == pytest.approx(0.5)
    assert normalize(1.0, [], []) == 1.0


def test_slices_run_during_a_phase_and_are_excluded():
    drift = DriftClock(interval_s=0.01)
    drift.start()
    try:
        with drift.phase("busy") as phase:
            deadline = time.process_time() + 0.3
            while time.process_time() < deadline:
                pass
    finally:
        drift.stop()
    assert len(phase.slices) >= 5
    assert phase.excluded_s == pytest.approx(sum(phase.slices))
    assert 0 < phase.net_cpu_s < phase.cpu_s
    assert drift.normalized(phase) == pytest.approx(
        phase.net_cpu_s * statistics.fmean(clock.REFERENCE_SLICE_S / s for s in phase.slices)
    )
