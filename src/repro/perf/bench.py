"""The pinned ``repro bench`` suite: micro/macro wall-clock benchmarks.

Four benches cover the layers the vectorization ROADMAP item is about to
rewrite, so every later "it got faster" claim is measured against a
committed ``BENCH_baseline.json``:

* ``replay_testbed`` — trace-replay ops/sec on the small device preset
  (the macro number; also profiled once for per-layer wall-time shares);
* ``replay_scaled``  — the same replay on a scaled-up geometry, so
  per-op costs that only bite at size are visible; its replay phase is
  also timed alone on both execution backends, interleaved
  (``replay_phase_scalar`` / ``replay_phase_vector``), yielding
  ``replay_vector_speedup`` — the number the vectorization ROADMAP item
  gates on;
* ``signatures``     — raw signature-kernel throughput over measured
  blocks;
* ``sweep``          — cold vs warm wall-clock of a tiny cached methods
  sweep (orchestration + cache overhead, not simulation).

Each timed bench runs ``repetitions`` times (the vector replay phase as
often as its shorter replays need to match the scalar phase's time) and
reports the **median** wall time (throughput is recomputed from the
median), which is robust to one-off scheduler noise without needing long
runs.  The resulting
document follows :mod:`repro.perf.schema` and carries per-metric noise
bands consumed by :mod:`repro.perf.compare`.

Everything here is wall-clock territory — legal only because this is
``repro.perf`` — but the workloads themselves are the deterministic
simulator: same seeds, same configs, byte-identical results regardless
of profiling.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy

from repro.perf.profiler import Profiler, Stopwatch, activate
from repro.perf.report import layer_shares
from repro.perf.schema import SCHEMA_VERSION, metric

if TYPE_CHECKING:
    from repro.exp.config import SimConfig

# The stack/sweep machinery is imported inside the bench functions, not
# here: lower layers import repro.perf for the profiling fence, so a
# module-level perf -> exp edge would be a circular import.  The deferred
# edges are reviewed LAYER_EXCEPTIONS in repro.lint.layers.


@dataclass(frozen=True)
class SuiteScale:
    """The knobs one suite mode pins."""

    name: str
    repetitions: int
    testbed_blocks: int
    testbed_chips: int
    testbed_requests: int
    scaled_blocks: int
    scaled_chips: int
    scaled_requests: int
    signature_pool_blocks: int
    signature_passes: int
    sweep_pool_blocks: int
    sweep_seeds: int


QUICK = SuiteScale(
    name="quick",
    repetitions=3,
    testbed_blocks=16,
    testbed_chips=2,
    testbed_requests=400,
    scaled_blocks=40,
    scaled_chips=4,
    scaled_requests=900,
    signature_pool_blocks=12,
    signature_passes=6,
    sweep_pool_blocks=8,
    sweep_seeds=2,
)

FULL = SuiteScale(
    name="full",
    repetitions=5,
    testbed_blocks=32,
    testbed_chips=4,
    testbed_requests=1600,
    scaled_blocks=96,
    scaled_chips=4,
    scaled_requests=4000,
    signature_pool_blocks=32,
    signature_passes=10,
    sweep_pool_blocks=16,
    sweep_seeds=4,
)

#: pinned seed for every bench workload (results stay deterministic).
BENCH_SEED = 2024

#: default noise bands (percent; ``band`` metrics use percentage points).
_TOL_THROUGHPUT = 40.0
_TOL_WALL = 40.0
_TOL_SWEEP = 60.0
#: warm sweep passes are single-digit milliseconds, so fs-cache noise
#: dominates; the wide band still catches the failure it exists for —
#: the cache not hitting makes warm ~= cold, thousands of percent worse.
_TOL_SWEEP_WARM = 150.0
_TOL_SHARE = 15.0


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _timed_reps(fn: Callable[[], int], repetitions: int) -> Dict[str, Any]:
    """Run ``fn`` (returning its op count) N times; median the wall time."""
    walls: List[float] = []
    ops = 0
    for _ in range(repetitions):
        watch = Stopwatch()
        ops = fn()
        walls.append(watch.elapsed_s())
    return _summarize(ops, walls)


def _summarize(ops: int, walls: List[float]) -> Dict[str, Any]:
    """A bench's repetitions: its op count, wall times, median and throughput."""
    median = _median(walls)
    return {
        "ops": ops,
        "wall_s": walls,
        "median_wall_s": median,
        "ops_per_s": ops / median if median > 0 else 0.0,
    }


# -- benches -----------------------------------------------------------------


def _replay_config(scale: SuiteScale, scaled: bool) -> "SimConfig":
    from repro.exp.config import SimConfig

    if scaled:
        return SimConfig.device(
            seed=BENCH_SEED,
            chips=scale.scaled_chips,
            blocks=scale.scaled_blocks,
            requests=scale.scaled_requests,
        )
    return SimConfig.device(
        seed=BENCH_SEED,
        chips=scale.testbed_chips,
        blocks=scale.testbed_blocks,
        requests=scale.testbed_requests,
    )


def _bench_replay(config: "SimConfig", repetitions: int) -> Dict[str, Any]:
    """Trace-replay ops/sec; each repetition replays a fresh stack."""
    from repro.exp.build import build_stack
    from repro.workloads.replay import Replayer

    def one_rep() -> int:
        stack = build_stack(config)
        requests = stack.requests()
        Replayer(stack.ssd).replay(requests)
        return len(requests)

    return _timed_reps(one_rep, repetitions)


def _replay_phase_once(config: "SimConfig") -> Tuple[int, float]:
    """Replay one fresh stack; returns (requests, seconds of ``replay`` alone).

    Stack construction and workload generation run the same code on both
    backends, so timing them would dilute the vector engine's effect; the
    stack is built untimed.
    """
    from repro.exp.build import build_stack
    from repro.workloads.replay import Replayer

    stack = build_stack(config)
    requests = stack.requests()
    watch = Stopwatch()
    Replayer(stack.ssd).replay(requests)
    return len(requests), watch.elapsed_s()


def _bench_replay_phases(
    config: "SimConfig", repetitions: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Replay-phase-only throughput of the scalar and vector backends.

    The backend speedup measurement.  The two phases are interleaved so
    host drift hits both alike: after each of the ``repetitions`` scalar
    replays, vector replays run until the vector side's summed replay time
    has caught up with the scalar side's.  The vector replay is about ten
    times shorter, so it gets about ten times the repetitions, and neither
    median rests on a few samples taken minutes apart from the other's.
    """
    scalar = config.with_(backend="scalar")
    vector = config.with_(backend="vector")
    walls: Dict[str, List[float]] = {"scalar": [], "vector": []}
    ops: Dict[str, int] = {}
    for _ in range(repetitions):
        ops["scalar"], wall = _replay_phase_once(scalar)
        walls["scalar"].append(wall)
        while sum(walls["vector"]) < sum(walls["scalar"]):
            ops["vector"], wall = _replay_phase_once(vector)
            walls["vector"].append(wall)
    return (
        _summarize(ops["scalar"], walls["scalar"]),
        _summarize(ops["vector"], walls["vector"]),
    )


def _profiled_replay_shares(config: "SimConfig") -> Dict[str, float]:
    """One extra profiled replay, reduced to per-layer wall-time shares."""
    from repro.exp.build import build_stack
    from repro.workloads.replay import Replayer

    profiler = Profiler()
    with activate(profiler):
        stack = build_stack(config)
        requests = stack.requests()
        Replayer(stack.ssd).replay(requests)
    return layer_shares(profiler)


def _bench_signatures(scale: SuiteScale) -> Dict[str, Any]:
    """Raw signature-kernel throughput over measured pool blocks."""
    from repro.assembly.signatures import SIGNATURE_BUILDERS
    from repro.exp.build import build_stack
    from repro.exp.config import SimConfig

    config = SimConfig.testbed(
        seed=BENCH_SEED, chips=2, pool_blocks=scale.signature_pool_blocks
    )
    measurements = [
        block for pool in build_stack(config).pools() for block in pool.blocks
    ]

    def one_rep() -> int:
        count = 0
        for _ in range(scale.signature_passes):
            for builder in SIGNATURE_BUILDERS.values():
                for measurement in measurements:
                    builder(measurement)
                    count += 1
        return count

    return _timed_reps(one_rep, scale.repetitions)


def _bench_sweep(scale: SuiteScale, repetitions: int) -> Dict[str, Any]:
    """Cold-vs-warm wall-clock of a tiny cached methods sweep.

    One cold pass (every cell computed and persisted), then ``repetitions``
    warm passes served from the cache; the warm number is the median.
    """
    from repro.exp.cache import ResultCache
    from repro.exp.config import SimConfig
    from repro.exp.sweep import Sweep
    from repro.exp.sweep import run as run_sweep

    base = SimConfig.testbed(
        seed=BENCH_SEED, chips=2, pool_blocks=scale.sweep_pool_blocks
    )
    sweep = Sweep(
        "methods", base=base, params={"methods": ["SEQUENTIAL", "QSTR-MED(4)"]}
    ).over("seed", list(range(scale.sweep_seeds)))
    cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-sweep-"))
    try:
        cache = ResultCache(cache_root / "cache")
        cold_watch = Stopwatch()
        cold = run_sweep(sweep, workers=1, cache=cache)
        cold_wall = cold_watch.elapsed_s()
        if cold.failures:
            raise RuntimeError("bench sweep cells failed; cannot time the suite")
        warm_walls: List[float] = []
        for _ in range(repetitions):
            warm_watch = Stopwatch()
            warm = run_sweep(sweep, workers=1, cache=cache)
            warm_walls.append(warm_watch.elapsed_s())
            if warm.cache_hits != len(warm.cells):
                raise RuntimeError("bench sweep warm pass missed the cache")
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    warm_median = _median(warm_walls)
    return {
        "cells": len(cold.cells),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_walls,
        "median_warm_wall_s": warm_median,
        "warm_speedup": cold_wall / warm_median if warm_median > 0 else 0.0,
    }


def profiled_replay(scale: SuiteScale = QUICK) -> Profiler:
    """One profiled testbed replay — the ``repro bench --profile`` tree."""
    from repro.exp.build import build_stack
    from repro.workloads.replay import Replayer

    profiler = Profiler()
    config = _replay_config(scale, scaled=False)
    with activate(profiler):
        stack = build_stack(config)
        requests = stack.requests()
        Replayer(stack.ssd).replay(requests)
    return profiler


def hotspot_rows(scale: SuiteScale = QUICK, top: int = 15) -> List[Any]:
    """cProfile one testbed replay; the top-N rows by cumulative time."""
    from repro.exp.build import build_stack
    from repro.perf.hotspots import profile_callable
    from repro.workloads.replay import Replayer

    config = _replay_config(scale, scaled=False)

    def one_replay() -> int:
        stack = build_stack(config)
        requests = stack.requests()
        Replayer(stack.ssd).replay(requests)
        return len(requests)

    _, rows = profile_callable(one_replay, top=top)
    return rows


# -- document assembly -------------------------------------------------------


def git_sha(cwd: Optional[Path] = None) -> str:
    """The short HEAD sha, or ``"nogit"`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    sha = proc.stdout.strip()
    return sha if sha else "nogit"


def env_fingerprint() -> Dict[str, Any]:
    """Where these numbers came from (never used in comparisons)."""
    return {
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy.__version__,
    }


def run_suite(
    scale: SuiteScale = QUICK,
    repetitions: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
    backend: str = "scalar",
) -> Dict[str, Any]:
    """Run the pinned suite and return the schema-valid bench document.

    ``backend`` selects the execution backend for the replay benches;
    the backend-vs-backend phase benches always pin their own.
    """
    reps = scale.repetitions if repetitions is None else repetitions
    if reps < 1:
        raise ValueError("repetitions must be >= 1")

    def say(line: str) -> None:
        if echo is not None:
            echo(line)

    say(f"bench suite '{scale.name}' (median of {reps} repetitions)")

    say("  replay_testbed ...")
    testbed_config = _replay_config(scale, scaled=False).with_(backend=backend)
    replay_testbed = _bench_replay(testbed_config, reps)
    say("  replay_testbed (profiled rep for layer shares) ...")
    shares = _profiled_replay_shares(testbed_config)
    say("  replay_scaled ...")
    scaled_config = _replay_config(scale, scaled=True)
    replay_scaled = _bench_replay(scaled_config.with_(backend=backend), reps)
    say("  replay_scaled (replay phase, scalar and vector backends interleaved) ...")
    replay_phase_scalar, replay_phase_vector = _bench_replay_phases(scaled_config, reps)
    vector_speedup = (
        replay_phase_vector["ops_per_s"] / replay_phase_scalar["ops_per_s"]
        if replay_phase_scalar["ops_per_s"] > 0
        else 0.0
    )
    say("  signatures ...")
    signatures = _bench_signatures(scale)
    say("  sweep (cold + warm) ...")
    sweep = _bench_sweep(scale, reps)

    metrics: Dict[str, Any] = {
        "replay_testbed_ops_per_s": metric(
            replay_testbed["ops_per_s"], "ops/s", "higher", _TOL_THROUGHPUT
        ),
        "replay_testbed_wall_s": metric(
            replay_testbed["median_wall_s"], "s", "lower", _TOL_WALL
        ),
        "replay_scaled_ops_per_s": metric(
            replay_scaled["ops_per_s"], "ops/s", "higher", _TOL_THROUGHPUT
        ),
        "replay_scaled_wall_s": metric(
            replay_scaled["median_wall_s"], "s", "lower", _TOL_WALL
        ),
        "replay_scaled_scalar_ops_per_s": metric(
            replay_phase_scalar["ops_per_s"], "ops/s", "higher", _TOL_THROUGHPUT
        ),
        "replay_scaled_vector_ops_per_s": metric(
            replay_phase_vector["ops_per_s"], "ops/s", "higher", _TOL_THROUGHPUT
        ),
        "replay_vector_speedup": metric(
            vector_speedup, "x", "higher", _TOL_THROUGHPUT
        ),
        "signature_kernel_sigs_per_s": metric(
            signatures["ops_per_s"], "signatures/s", "higher", _TOL_THROUGHPUT
        ),
        "sweep_cold_wall_s": metric(
            sweep["cold_wall_s"], "s", "lower", _TOL_SWEEP
        ),
        "sweep_warm_wall_s": metric(
            sweep["median_warm_wall_s"], "s", "lower", _TOL_SWEEP_WARM
        ),
        "sweep_warm_speedup": metric(
            sweep["warm_speedup"], "x", "higher", _TOL_SWEEP_WARM
        ),
    }
    # Layer shares as band metrics: catch attribution drift (e.g. the FTL
    # suddenly dominating) even when absolute speed moved within tolerance.
    for layer in ("nand", "ftl"):
        if layer in shares:
            metrics[f"replay_share_{layer}"] = metric(
                shares[layer], "share", "band", _TOL_SHARE
            )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": scale.name,
        "backend": backend,
        "repetitions": reps,
        "git_sha": git_sha(),
        "env": env_fingerprint(),
        "metrics": metrics,
        "layers": {"replay_testbed": shares},
        "benches": {
            "replay_testbed": replay_testbed,
            "replay_scaled": replay_scaled,
            "replay_phase_scalar": replay_phase_scalar,
            "replay_phase_vector": replay_phase_vector,
            "signatures": signatures,
            "sweep": sweep,
        },
    }


def render_suite(doc: Dict[str, Any]) -> str:
    """Human summary of one bench document."""
    lines = [
        f"bench suite: {doc['suite']}  (median of {doc['repetitions']} reps, "
        f"git {doc['git_sha']})",
        f"{'metric':<34s} {'value':>14s}  unit",
        "-" * 60,
    ]
    for name in sorted(doc["metrics"]):
        entry = doc["metrics"][name]
        lines.append(f"{name:<34s} {entry['value']:>14,.4g}  {entry['unit']}")
    shares = doc.get("layers", {}).get("replay_testbed", {})
    if shares:
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        lines.append(
            "layer shares (replay_testbed): "
            + "  ".join(f"{layer} {share:.1%}" for layer, share in ranked)
        )
    return "\n".join(lines)
