"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload device_zipf_gc --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).  One
run is one fresh single-threaded process that repeats the workload —
set-up (build the stack, generate the inputs from the seed), then serve —
until ``--seconds`` of wall time is spent (at least ``MIN_REPS`` times),
checks every repetition's outputs, and prints a human-readable report
followed by one JSON line:

* ``--trace 0``: the end-to-end metrics (``setup_s``, ``serve_s``,
  ``peak_rss_mb``), medians over the repetitions;
* ``--trace 1``: the per-layer metrics.  Traced repetitions alternate with
  untraced ones; the traced ones wrap every layer's entry points
  (``perfbench.spans``) and their spans go to
  ``perfbench/out/<workload>-seed<seed>.spans.jsonl.gz``.

The simulated results (``sim_*``, ``write_amp``, ``failed_frac``) are
printed in the report with their sample counts; they are exact for a seed
and must repeat across repetitions and between traced and untraced runs.
A failed check names itself on stderr and exits 1.  Exit 2 means a bad
argument or no ``repro`` package to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("device_zipf_gc", "device_faulted_mixed", "fleet_outage", "paper_tables")
#: Untraced repetitions a run makes at least (medians need more than one).
MIN_REPS = 2
#: A traced run may leave at most this share of serve time unattributed.
MAX_UNATTRIBUTED = 0.10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Rep:
    """One repetition: its phases, outcome and (traced) per-layer numbers."""

    traced: bool
    setup_s: float
    serve_s: float
    raw: Dict[str, float]
    outcome: Any
    layers: Dict[str, float]
    recorder: Any = None


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="wall-time budget of the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_rep(workload: Any, seed: int, clock: Any, traced: bool) -> Rep:
    """Set up and serve once; evaluate and check the outputs untimed."""
    from perfbench import spans, workloads

    patches = spans.Patches()
    recorder = None
    if traced:
        recorder = spans.SpanRecorder()
        spans.install(recorder, patches)
        clock.on_exclude = recorder.on_exclude
    observer = workloads.Observer(clock)
    observer.install(patches)
    gc.collect()
    try:
        with clock.phase("setup") as setup:
            state = workload.setup(seed)
        with clock.phase("serve") as serve:
            workload.serve(state)
    finally:
        patches.restore()
        clock.on_exclude = None
    outcome = workload.evaluate(state, observer)
    del state
    raw = {
        "setup_cpu_s": setup.net_cpu_s,
        "setup_wall_s": setup.net_wall_s,
        "serve_cpu_s": serve.net_cpu_s,
        "serve_wall_s": serve.net_wall_s,
    }
    rep = Rep(traced, clock.normalized(setup), clock.normalized(serve), raw, outcome, {}, recorder)
    if recorder is not None:
        rep.layers = layer_metrics(recorder, clock, setup, serve)
    return rep


def layer_metrics(recorder: Any, clock: Any, setup: Any, serve: Any) -> Dict[str, float]:
    """Per-layer self times (drift-normalized) and boundary counts of a traced rep."""
    from perfbench.clock import normalize
    from perfbench.spans import LAYERS

    setup_self, serve_self = recorder.layer_self_seconds(
        [(setup.start_wall, setup.end_wall), (serve.start_wall, serve.end_wall)]
    )
    setup_factor = normalize(1.0, setup.slices, clock.slices)
    serve_factor = normalize(1.0, serve.slices, clock.slices)
    layers: Dict[str, float] = {}
    for layer in LAYERS:
        layers[f"{layer}.setup_s"] = setup_self[layer] * setup_factor
        layers[f"{layer}.serve_s"] = serve_self[layer] * serve_factor
    layers["unattributed.serve_s"] = (serve.net_wall_s - sum(serve_self.values())) * serve_factor
    calls = recorder.calls()
    counts = recorder.counts
    reads = counts.get("ftl.reads", 0)
    acquires = counts.get("ssd.die_acquires", 0)
    layers.update(
        {
            "nand.program_calls": float(calls.get("FlashChip.program_wordline", 0)),
            "nand.read_calls": float(calls.get("FlashChip.read_page", 0)),
            "nand.erase_calls": float(calls.get("FlashChip.erase_block", 0)),
            "characterization.blocks_probed": float(calls.get("Prober.probe_block", 0)),
            "core.assemblies": float(calls.get("OnDemandAssembler.assemble", 0)),
            "ftl.read_buffer_hit_frac": counts.get("ftl.read_buffer_hits", 0) / reads if reads else 0.0,
            "ftl.unmapped_read_frac": counts.get("ftl.unmapped_reads", 0) / reads if reads else 0.0,
            "ssd.die_wait_us": counts.get("ssd.die_wait_us", 0.0) / acquires if acquires else 0.0,
        }
    )
    return layers


def measure(args: argparse.Namespace, clock: Any) -> Tuple[List[Rep], float]:
    """Repeat the workload within the time budget; every rep is checked.

    Returns the reps and the wall seconds they took.
    """
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cycle = (False, True) if args.trace else (False,)
    min_cycles = 1 if args.trace else MIN_REPS
    reps: List[Rep] = []
    begin = time.perf_counter()
    cycles = 0
    while True:
        for traced in cycle:
            rep = run_rep(workload, args.seed, clock, traced)
            if rep.recorder is not None:
                for earlier in reps:  # keep only the last traced rep's spans
                    earlier.recorder = None
            reps.append(rep)
        cycles += 1
        elapsed = time.perf_counter() - begin
        if cycles >= min_cycles and elapsed + elapsed / cycles > args.seconds:
            break
    return reps, time.perf_counter() - begin


def check_repeats(reps: Sequence[Rep], traced_run: bool) -> str:
    """Simulated results and counts must repeat exactly across reps."""
    from perfbench.metrics import CheckFailed

    def results(outcome: Any) -> Dict[str, Any]:
        return {**outcome.sim, **outcome.counts, "attempted": outcome.attempted, "failed": outcome.failed}

    name = "traced_equals_untraced" if traced_run else "reps_identical"
    first = results(reps[0].outcome)
    for index, rep in enumerate(reps[1:], start=1):
        other = results(rep.outcome)
        differ = sorted(key for key in first.keys() | other.keys() if first.get(key) != other.get(key))
        if differ:
            raise CheckFailed(name, f"rep {index} differs from rep 0 in {differ}")
    return name


def run_record(args: argparse.Namespace, outcome: Any, clock: Any) -> List[str]:
    import numpy

    from perfbench.clock import REFERENCE_SLICE_S, normalize

    slices = clock.slices
    return [
        f"perfbench  workload={args.workload}  seed={args.seed}  trace={args.trace}",
        f"run record: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, engine {outcome.engine}",
        f"drift: {len(slices)} slices, median {statistics.median(slices) * 1e3:.4f} ms vs reference "
        f"{REFERENCE_SLICE_S * 1e3:.4f} ms (run factor {normalize(1.0, [], slices):.4f})",
    ]


def report_untraced(
    args: argparse.Namespace, clock: Any, import_phase: Any, reps: List[Rep], wall_s: float
) -> Dict[str, float]:
    from perfbench.metrics import ALL

    outcome = reps[0].outcome
    import_s = clock.normalized(import_phase)
    setup = [rep.setup_s for rep in reps]
    serve = [rep.serve_s for rep in reps]
    values = {
        "setup_s": import_s + statistics.median(setup),
        "serve_s": statistics.median(serve),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    def raw(key: str) -> float:
        return statistics.median(rep.raw[key] for rep in reps)

    details = {
        "setup_s": f"import {import_s:.4f} + median set-up of {len(reps)}: "
        + " ".join(f"{v:.4f}" for v in setup)
        + f"  [raw cpu {import_phase.net_cpu_s + raw('setup_cpu_s'):.4f} s, "
        f"wall {import_phase.net_wall_s + raw('setup_wall_s'):.4f} s]",
        "serve_s": f"median of {len(reps)}: "
        + " ".join(f"{v:.4f}" for v in serve)
        + f"  [raw cpu {raw('serve_cpu_s'):.4f} s, wall {raw('serve_wall_s'):.4f} s]",
        "peak_rss_mb": "ru_maxrss of the whole run",
    }
    lines = run_record(args, outcome, clock)
    lines.append(f"end-to-end (host; {len(reps)} reps in {wall_s:.1f} s wall):")
    for name, value in values.items():
        spec = ALL[name]
        lines.append(f"  {name:<22} {value:>14.4f} {spec.unit:<5} {spec.better:<6} {details[name]}")
    lines.append("simulated (exact for the seed):")
    for name, (value, samples) in outcome.sim.items():
        spec = ALL[name]
        lines.append(f"  {name:<22} {value:>14.4f} {spec.unit:<5} {spec.better:<6} n={samples:,}")
    lines.append(
        f"requests: attempted {outcome.attempted:,}, failed {outcome.failed:,} "
        f"(incl. {outcome.reads_without_data:,} of {outcome.device_reads:,} device reads "
        "answered without their data)"
    )
    print("\n".join(lines))
    return values


def report_traced(args: argparse.Namespace, clock: Any, import_phase: Any, reps: List[Rep]) -> Dict[str, float]:
    from perfbench.metrics import ALL, PER_LAYER, CheckFailed

    traced = [rep for rep in reps if rep.traced]
    untraced = [rep for rep in reps if not rep.traced]
    traced_serve = statistics.median(rep.serve_s for rep in traced)
    layers = {key: statistics.median(rep.layers[key] for rep in traced) for key in traced[0].layers}
    layers.update(traced[0].outcome.counts)
    layers["import.setup_s"] = clock.normalized(import_phase)
    layers["trace.overhead_s"] = traced_serve - statistics.median(rep.serve_s for rep in untraced)
    unattributed = layers["unattributed.serve_s"]
    if unattributed > MAX_UNATTRIBUTED * traced_serve:
        raise CheckFailed(
            "attribution", f"{unattributed:.4f} s of {traced_serve:.4f} s traced serve time unattributed"
        )
    lines = run_record(args, reps[0].outcome, clock)
    lines.append(
        f"per layer ({len(traced)} traced + {len(untraced)} untraced reps; traced serve_s "
        f"{traced_serve:.4f} s, {unattributed / traced_serve:.1%} unattributed):"
    )
    listed = {m.name for m in PER_LAYER}
    for name in sorted(layers):
        if name in listed:
            lines.append(f"  {name:<32} {layers[name]:>16.6f} {ALL[name].unit:<5} {ALL[name].meaning}")
        else:
            lines.append(f"  {name:<32} {layers[name]:>16.6f} s     self time (report only)")
    print("\n".join(lines))
    return {m.name: layers[m.name] for m in PER_LAYER}


def result_line(outcome: Any, values: Dict[str, float], trace: int) -> str:
    """The last output line: request counts and the metrics.

    Only printed once every check passed (a failed check exits first).
    """
    from perfbench.metrics import END_TO_END, PER_LAYER

    listed = PER_LAYER if trace else END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in listed}
    return json.dumps(
        {"correct": True, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_BACKEND", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.clock import DriftClock

    clock = DriftClock()
    clock.start()
    try:
        with clock.phase("import", cpu_origin=0.0) as import_phase:
            from perfbench import workloads  # noqa: F401  (imports repro)
        from perfbench.metrics import CheckFailed

        try:
            reps, wall_s = measure(args, clock)
            checks = list(reps[0].outcome.checks)
            checks.append(check_repeats(reps, bool(args.trace)))
            if args.trace:
                values = report_traced(args, clock, import_phase, reps)
                checks.append("attribution")
            else:
                values = report_untraced(args, clock, import_phase, reps, wall_s)
        except CheckFailed as failure:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
            return 1
        print(f"checks passed: {', '.join(checks)}")
        last = next((rep.recorder for rep in reps if rep.recorder is not None), None)
        if last is not None:
            path = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            last.write(path)
            print(f"spans: {path.relative_to(ROOT)}")
        print(result_line(reps[0].outcome, values, args.trace))
        return 0
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
