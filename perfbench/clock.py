"""Host CPU time, steadied against the host's drifting CPU speed.

On a shared 2-vCPU x86-64 host the speed of one core drifts over seconds:
twelve fresh processes replaying the same requests spread over an
inter-quartile range of 17 % of their median CPU time, and wall time is no
steadier.  So every phase is measured in CPU seconds and then rescaled by
how fast the CPU ran *while that phase ran*:

* a SIGPROF interval timer fires every ``SLICE_INTERVAL_S`` of process CPU
  time and its handler runs one *slice* — :func:`calibration_work`, a fixed
  piece of interpreter work (about 1.1 ms on that host) timed with
  ``perf_counter`` (``process_time`` does not advance inside the handler
  there);
* the timer splits a phase into equal stretches of CPU time, one slice
  each, so the phase's time is its CPU seconds (minus the slices and any
  other excluded bookkeeping it contained) times the mean over its slices
  of ``REFERENCE_SLICE_S / slice duration``: each stretch is rescaled by
  the speed measured in it.  A phase with fewer than ``MIN_PHASE_SLICES``
  slices uses the whole run's.

The result reads as seconds on a CPU running the slice at the reference
speed.  The slices cost about 2.3 % of the CPU, and since they are timed
and subtracted they never count as the program's time.  Raw CPU and wall
seconds are kept beside the normalized value so the correction can be
audited.

The slice mimics the simulator (small slotted objects, dict stores and
lookups, float arithmetic, a sort) because that tracks the simulator's
speed better than a bare integer loop: over 14 fresh processes serving the
same device_faulted_mixed inputs, raw serve CPU spread with a log standard
deviation of 11.2 %, 6.8 % after scaling by an integer loop and 4.7 % after
scaling by this slice (correlation 0.91 with the raw time, slope 1.1).
Rescaling stretch by stretch rather than by the phase's median slice cut
the spread between repetitions of one run from 5.0 % to 3.8 % (mean
absolute log deviation over 30 fleet_outage serve phases; 5.6 % raw).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

#: Objects one slice allocates.
SLICE_OBJECTS = 1_300
#: Median slice duration on the reference host (2 vCPU x86-64 VM,
#: CPython 3.11): normalized seconds equal raw seconds at that speed.
REFERENCE_SLICE_S = 0.00115
#: Process CPU time between two slices.
SLICE_INTERVAL_S = 0.05
#: A phase with fewer slices borrows the run-wide median.
MIN_PHASE_SLICES = 8


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def calibration_work(objects: int = SLICE_OBJECTS) -> int:
    """One slice: fixed interpreter work, a few KB of memory, no I/O."""
    table = {key: _Cell(key, 0.0) for key in range(64)}
    values = []
    for i in range(objects):
        cell = _Cell(i, i * 0.5)
        table[i & 63] = cell
        values.append(cell.value + table[(i * 7) & 63].key)
    values.sort()
    return len(values)


@dataclass
class Phase:
    """CPU, wall and slice record of one measured stretch of the run."""

    name: str
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: seconds inside the phase that are not the program's: slices plus
    #: bookkeeping the benchmark itself reported through ``exclude``.
    excluded_s: float = 0.0
    slices: List[float] = field(default_factory=list)
    start_wall: float = 0.0
    end_wall: float = 0.0

    @property
    def net_cpu_s(self) -> float:
        return self.cpu_s - self.excluded_s

    @property
    def net_wall_s(self) -> float:
        return self.wall_s - self.excluded_s


def normalize(seconds: float, phase_slices: List[float], run_slices: List[float]) -> float:
    """Rescale ``seconds`` to the reference CPU speed.

    Uses the phase's own slices when there are enough of them, else the
    run's; with no slices at all the value is returned as measured.
    """
    samples = phase_slices if len(phase_slices) >= MIN_PHASE_SLICES else run_slices
    if not samples:
        return seconds
    return seconds * statistics.fmean(REFERENCE_SLICE_S / s for s in samples)


class DriftClock:
    """Runs the calibration slices and times phases against them.

    ``on_exclude(start, end)`` (perf_counter seconds) lets a span recorder
    see each excluded interval — slice or bookkeeping — so it can remove it
    from whatever span it fell in.
    """

    def __init__(self, interval_s: float = SLICE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.slices: List[float] = []
        self.on_exclude: Optional[Callable[[float, float], None]] = None
        self._current: Optional[Phase] = None
        self._busy = False
        self._previous_handler: object = None

    # -- slices ---------------------------------------------------------------

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)  # type: ignore[arg-type]

    def _tick(self, signum: int, frame: object) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not a slice
        try:
            begin = time.perf_counter()
            calibration_work()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.record_slice(begin, end)

    def record_slice(self, begin: float, end: float) -> None:
        self.slices.append(end - begin)
        if self._current is not None:
            self._current.slices.append(end - begin)
        self.exclude(begin, end)

    # -- phases ---------------------------------------------------------------

    def exclude(self, begin: float, end: float) -> None:
        """Take the perf_counter interval [begin, end] out of the current phase."""
        if self._current is not None:
            self._current.excluded_s += end - begin
        if self.on_exclude is not None:
            self.on_exclude(begin, end)

    @contextmanager
    def phase(self, name: str, cpu_origin: Optional[float] = None) -> Iterator[Phase]:
        """Time the body; ``cpu_origin=0.0`` counts CPU from process start."""
        phase = Phase(name)
        cpu0 = time.process_time() if cpu_origin is None else cpu_origin
        phase.start_wall = time.perf_counter()
        outer, self._current = self._current, phase
        try:
            yield phase
        finally:
            phase.end_wall = time.perf_counter()
            phase.cpu_s = time.process_time() - cpu0
            phase.wall_s = phase.end_wall - phase.start_wall
            self._current = outer

    def normalized(self, phase: Phase) -> float:
        """The phase's own CPU seconds at the reference CPU speed."""
        return normalize(phase.net_cpu_s, phase.slices, self.slices)
