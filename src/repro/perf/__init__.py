"""repro.perf — wall-clock performance observability for the simulator.

``repro.obs`` answers "how long did the *simulated* device take";
this layer answers "how long did the *simulation* take", and it is the
only place in the tree allowed to read the host clock (DET001/OBS001
carve-outs; the deep linter audits the fence).  Profiling never perturbs
simulation results — same seeds produce byte-identical traces with a
profiler active or not.

* :class:`Profiler` / :func:`perf_scope` / :func:`profiled` — scoped
  wall-time attribution to ``layer.phase`` scopes, a shared no-op when no
  profiler is activated;
* :class:`Stopwatch` — the sanctioned wall-clock handle for ``exp``/CLI
  code (sweep cell timing, run summaries);
* :func:`render_profile` / :func:`layer_shares` — hierarchical reports
  and per-layer wall-time shares;
* :func:`profile_callable` / :func:`render_hotspots` — cProfile deep
  mode, the hottest functions of one replay;
* :func:`run_suite` / ``BENCH_*.json`` schema / :func:`compare_docs` —
  the pinned ``repro bench`` suite, its versioned document format, and
  the baseline regression gate CI runs.

Layering: ``perf`` sits directly above ``utils``; every other layer may
import it (the scope calls are no-ops unless a profiler is active).
"""

from repro.perf.bench import (
    BENCH_SEED,
    FULL,
    QUICK,
    SuiteScale,
    env_fingerprint,
    git_sha,
    hotspot_rows,
    profiled_replay,
    render_suite,
    run_suite,
)
from repro.perf.compare import (
    BenchComparison,
    MetricComparison,
    compare_docs,
    render_comparison,
)
from repro.perf.hotspots import HotFunction, profile_callable, render_hotspots
from repro.perf.profiler import (
    Profiler,
    ProfileNode,
    Stopwatch,
    activate,
    active_profiler,
    perf_count,
    perf_scope,
    profiled,
)
from repro.perf.report import (
    LAYER_ALIASES,
    layer_shares,
    profile_to_dict,
    render_profile,
    scope_layer,
)
from repro.perf.schema import SCHEMA_VERSION, validate_bench_doc

__all__ = [
    "Profiler",
    "ProfileNode",
    "Stopwatch",
    "activate",
    "active_profiler",
    "perf_scope",
    "perf_count",
    "profiled",
    "LAYER_ALIASES",
    "scope_layer",
    "layer_shares",
    "profile_to_dict",
    "render_profile",
    "HotFunction",
    "profile_callable",
    "render_hotspots",
    "SCHEMA_VERSION",
    "validate_bench_doc",
    "SuiteScale",
    "QUICK",
    "FULL",
    "BENCH_SEED",
    "run_suite",
    "render_suite",
    "profiled_replay",
    "hotspot_rows",
    "git_sha",
    "env_fingerprint",
    "BenchComparison",
    "MetricComparison",
    "compare_docs",
    "render_comparison",
]
