"""repro.perf — wall-clock performance observability for the simulator.

``repro.obs`` answers "how long did the *simulated* device take";
this layer answers "how long did the *simulation* take", and it is the
only place in the tree allowed to read the host clock (DET001/OBS001
carve-outs; the whole-program taint rules audit the fence).  Profiling never perturbs
simulation results — same seeds produce byte-identical traces with a
profiler active or not.

* :class:`Profiler` / :func:`perf_scope` / :func:`profiled` — scoped
  wall-time attribution to ``layer.phase`` scopes, a shared no-op when no
  profiler is activated;
* :class:`Stopwatch` — the sanctioned wall-clock handle for ``exp``/CLI
  code (sweep cell timing, run summaries);
* :mod:`repro.perf.report` — hierarchical reports and per-layer
  wall-time shares;
* :mod:`repro.perf.hotspots` — cProfile deep mode, the hottest functions
  of one replay;
* :mod:`repro.perf.bench` / :mod:`repro.perf.schema` /
  :mod:`repro.perf.compare` — the pinned ``repro bench`` suite, its
  versioned document format, and the baseline regression gate CI runs.

The package exports the profiler alone; the report, hotspot and bench
modules serve ``repro bench`` and are imported by module path.

Layering: ``perf`` sits directly above ``utils``; every other layer may
import it (the scope calls are no-ops unless a profiler is active).
"""

from repro.perf.profiler import (
    Profiler,
    Stopwatch,
    activate,
    active_profiler,
    perf_count,
    perf_scope,
    profiled,
)

__all__ = [
    "Profiler",
    "Stopwatch",
    "activate",
    "active_profiler",
    "perf_scope",
    "perf_count",
    "profiled",
]
