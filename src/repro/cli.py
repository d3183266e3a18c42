"""Command-line interface.

``python -m repro`` (or the ``repro`` console script) exposes the main
experiments without writing code:

* ``repro tables``  — reproduce Tables I/II/V at a chosen scale;
* ``repro figures`` — print the sparkline versions of Figures 5/6/13/14;
* ``repro replay``  — run a trace (file or synthetic) through the simulated
  SSD with a chosen allocator and print the latency report;
* ``repro run``     — a traced run: same stack with the deterministic tracer
  attached, exporting Chrome/JSONL traces and a metrics summary;
* ``repro obs report`` — summarize a recorded JSONL event log;
* ``repro sweep``   — expand a parameter grid into independent cells and run
  them in parallel with content-hash result caching (``repro.exp``);
* ``repro fleet``   — serve a sharded multi-tenant workload over N simulated
  SSDs (deadlines, hedged reads, circuit breakers, graceful degradation);
* ``repro overhead`` — the computing/space overhead numbers of Section VI;
* ``repro lint``    — run the ``reprolint`` simulation-invariant checks.

Every subcommand translates its argparse flags into a
:class:`repro.exp.SimConfig` and builds through the one construction path,
:func:`repro.exp.build_stack`.

Exit codes — one table for every subcommand, so scripts and CI can branch
on them without per-command special cases:

* ``0`` — success: the command ran and every gate it checks passed;
* ``1`` — verdict/gate failure: the command ran to completion but what it
  measured failed — lint findings, a bench regression or speedup gate
  miss, failed sweep cells, a device out of space mid-workload, or fleet
  requests that exhausted every retry;
* ``2`` — usage error: bad flags, specs, or input files, rejected before
  (or without) running the experiment — from argparse itself or from the
  eager validation in the command functions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    TABLE5_METHODS,
    fig5_characterization,
    fig6_random_extra,
    fig13_distributions,
    fig14_per_superblock,
    render_histogram,
    render_series_block,
    render_table1,
    render_table2,
    render_table5,
)
from repro.analysis.figures import cumulative_mean
from repro.core import (
    FootprintModel,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.exp import (
    ALLOCATOR_KINDS,
    DEFAULT_CACHE_DIR,
    MethodEvaluator,
    SimConfig,
    build_stack,
)
from repro.ftl import OutOfSpaceError
from repro.nand import PAPER_GEOMETRY
from repro.utils.units import TIB, format_bytes


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--blocks", type=int, default=400, help="pool blocks per chip")
    parser.add_argument("--chips", type=int, default=4, help="chips (lanes)")
    parser.add_argument("--seed", type=int, default=2024, help="testbed seed")


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["scalar", "vector"],
        default="scalar",
        help="execution backend: reference scalar engine or the numpy "
        "vector engine (byte-identical results, vector is faster); "
        "$REPRO_BACKEND upgrades the scalar default",
    )


def _add_policy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        action="append",
        default=[],
        metavar="POINT=NAME[:K=V,...]",
        help="override one decision policy (repeatable), e.g. "
        "--policy assembly=assembly.predictor or "
        "--policy allocation=allocation.bandit:epsilon=0.2",
    )


def _testbed(args: argparse.Namespace) -> SimConfig:
    return SimConfig.testbed(seed=args.seed, chips=args.chips, pool_blocks=args.blocks)


def _evaluator(config: SimConfig) -> MethodEvaluator:
    """One evaluator over the testbed's pools, shared by every table/figure."""
    print(
        f"probing {config.chips} chips x {config.pool_blocks} blocks ...",
        file=sys.stderr,
    )
    return MethodEvaluator(build_stack(config).pools())


def cmd_tables(args: argparse.Namespace) -> int:
    evaluator = _evaluator(_testbed(args))
    if args.table in ("1", "all"):
        print("\nTable I — eight directions")
        print(render_table1(evaluator.rows(TABLE1_METHODS)))
    if args.table in ("2", "all"):
        print("\nTable II — STR-RANK window sweep")
        print(render_table2(evaluator.rows(TABLE2_METHODS)))
    if args.table in ("5", "all"):
        print("\nTable V — extra program/erase latency")
        print(render_table5(evaluator.result("RANDOM"), evaluator.rows(TABLE5_METHODS)))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    config = _testbed(args)
    if args.figure in ("5", "all"):
        series = fig5_characterization(
            config.with_(chips=2, pool_blocks=min(args.blocks, 200)), curve_blocks=(0, 1)
        )
        erase = {
            f"chip{c} plane{p}": [v for _, v in vals]
            for (c, p), vals in sorted(series.erase_by_chip_plane.items())
            if p == 0
        }
        print("\nFigure 5 (top) — tBERS per block")
        print(render_series_block("", erase))
        curves = {
            f"chip{c} blk{b}": curve
            for (c, b), curve in sorted(series.program_curves.items())
        }
        print("\nFigure 5 (bottom) — tPROG per word-line")
        print(render_series_block("", curves))
    if args.figure == "5":
        return 0  # Figure 5 probes its own fresh stack, not the pools
    evaluator = _evaluator(config)
    if args.figure in ("6", "all"):
        series = fig6_random_extra(evaluator)
        print("\nFigure 6 — random-assembly extra latency per superblock")
        print(
            render_series_block(
                "",
                {
                    "extra PGM [us]": series.extra_program_us,
                    "extra ERS [us]": series.extra_erase_us,
                },
            )
        )
    if args.figure in ("13", "all"):
        hists = fig13_distributions(
            evaluator.rows(["QSTR-MED(4)"]), evaluator.result("RANDOM"), bins=16
        )
        print("\nFigure 13 — extra PGM latency distributions")
        for name, hist in hists.items():
            print(render_histogram(name, hist, width=32))
    if args.figure in ("14", "all"):
        series = fig14_per_superblock(evaluator)
        print("\nFigure 14 — running-mean extra PGM latency")
        print(
            render_series_block(
                "",
                {
                    "STR-MED(4)": cumulative_mean(series.str_med),
                    "QSTR-MED(4)": cumulative_mean(series.qstr_med),
                    "RANDOM": cumulative_mean(series.random),
                },
            )
        )
    return 0


def _device_config(
    args: argparse.Namespace, requests: Optional[int] = None
) -> SimConfig:
    """Translate the ``replay``/``run`` argparse flags into a SimConfig."""
    config = SimConfig.device(
        seed=args.seed,
        chips=args.chips,
        blocks=args.blocks,
        allocator=args.allocator,
        interarrival_us=args.interarrival_us,
        requests=requests,
        trace_path=getattr(args, "trace", None) if args.command == "replay" else None,
    )
    backend = getattr(args, "backend", "scalar")
    if backend != "scalar":
        config = config.with_(backend=backend)
    return _apply_fault_args(config, args)


def _apply_fault_args(config: SimConfig, args: argparse.Namespace) -> SimConfig:
    """Fold the optional ``--faults`` and ``--policy`` flags into ``config``.

    Both default to "absent", in which case the config is returned
    untouched — the fault-free path must build the exact historical
    stack, byte for byte.
    """
    spec = getattr(args, "faults", None)
    if spec:
        from repro.faults import FaultPlan

        try:
            config = config.with_(faults=FaultPlan.from_spec(spec))
        except (ValueError, OSError) as error:
            print(f"repro: bad --faults {spec!r}: {error}", file=sys.stderr)
            raise SystemExit(2) from error
    return _apply_policy_args(config, args)


def _apply_policy_args(config: SimConfig, args: argparse.Namespace) -> SimConfig:
    """Fold repeated ``--policy POINT=NAME[:k=v,...]`` flags into ``config``.

    Validation is eager — an unknown point, an unregistered policy name or
    a bad parameter exits 2 here, before any stack is built.
    """
    for text in getattr(args, "policy", None) or []:
        point, sep, value = text.partition("=")
        if not sep or not point or not value:
            print(
                f"repro: bad --policy {text!r} (want POINT=NAME[:k=v,...])",
                file=sys.stderr,
            )
            raise SystemExit(2)
        from repro.policy import POLICY_POINTS, PolicySpec, make_policy

        if point not in POLICY_POINTS:
            print(
                f"repro: unknown policy point {point!r}; pick from "
                f"{', '.join(POLICY_POINTS)}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        try:
            spec = PolicySpec.from_text(value)
            make_policy(spec)  # unknown names and params fail here, not mid-run
            config = config.with_path(f"policies.{point}", spec)
        except (TypeError, ValueError) as error:
            print(f"repro: bad --policy {text!r}: {error}", file=sys.stderr)
            raise SystemExit(2) from error
    return config


def _out_of_space(args: argparse.Namespace, error: Exception) -> int:
    """Clean exit when the device runs out of free blocks mid-workload.

    Fault injection retires blocks (and can purge whole planes), so a
    heavy-enough schedule legitimately exhausts a lane — that is a
    capacity verdict, not a crash worth a traceback.
    """
    print(f"repro: device out of space: {error}", file=sys.stderr)
    if getattr(args, "faults", None):
        print(
            "repro: the fault schedule retired more capacity than the "
            "overprovisioning could absorb; lower the fault rates or "
            "raise --blocks",
            file=sys.stderr,
        )
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.workloads import Replayer

    stack = build_stack(_device_config(args))
    print("formatting ...", file=sys.stderr)
    ftl = stack.ftl
    requests = stack.requests()
    print(f"replaying {len(requests)} requests ...", file=sys.stderr)
    try:
        report = Replayer(stack.ssd).replay(requests)
    except OutOfSpaceError as error:
        return _out_of_space(args, error)
    print(f"\nallocator: {args.allocator}")
    for op, summary in report.summary().items():
        print(
            f"  {op:6s} n={int(summary['count']):6d} mean={summary['mean']:,.1f} us  "
            f"p99={summary['p99']:,.1f} us"
        )
    if report.dropped or report.trimmed:
        print(
            f"  past the {ftl.logical_pages:,} logical pages: "
            f"{report.dropped} requests dropped, {report.trimmed} trimmed"
        )
    metrics = ftl.metrics.summary()
    for key in (
        "write_amplification",
        "extra_program_mean_us",
        "extra_erase_mean_us",
        "gc_runs",
    ):
        print(f"  {key}: {metrics[key]:,.2f}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        MetricsRegistry,
        Tracer,
        TraceSummary,
        render_report,
        write_chrome,
        write_jsonl,
    )
    from repro.perf import Stopwatch
    from repro.workloads import Replayer

    total_watch = Stopwatch()
    tracer = Tracer()
    registry = MetricsRegistry()
    stack = build_stack(
        _device_config(args, requests=args.requests),
        tracer=tracer,
        registry=registry,
    )
    print("formatting ...", file=sys.stderr)
    ssd = stack.ssd
    ftl = ssd.ftl
    requests = stack.requests()
    print(f"running {len(requests)} requests (traced) ...", file=sys.stderr)
    replay_watch = Stopwatch()
    try:
        report = Replayer(ssd).replay(requests)
    except OutOfSpaceError as error:
        return _out_of_space(args, error)
    replay_wall_s = replay_watch.elapsed_s()
    print(f"\nallocator: {args.allocator}")
    for op, op_summary in report.summary().items():
        print(
            f"  {op:6s} n={int(op_summary['count']):6d} "
            f"mean={op_summary['mean']:,.1f} us  p99={op_summary['p99']:,.1f} us"
        )
    metrics = ftl.metrics.summary()
    for key in (
        "write_amplification",
        "host_write_p99_us",
        "extra_program_p99_us",
        "gc_runs",
    ):
        print(f"  {key}: {metrics[key]:,.2f}")
    # Fault keys exist only when injection actually bit (see
    # FtlMetrics.faults_active), so fault-free stdout is unchanged.
    if "program_failures" in metrics:
        print("  -- faults --")
        for key in (
            "program_failures",
            "erase_failures",
            "sb_repairs",
            "superblocks_degraded",
            "plane_purges",
            "repair_copy_mean_us",
            "post_repair_extra_mean_us",
        ):
            print(f"  {key}: {metrics[key]:,.2f}")
    trace_summary = TraceSummary(tracer.events)
    print()
    print(render_report(trace_summary))
    if args.trace:
        write_chrome(args.trace, tracer.events)
        print(
            f"wrote Chrome trace: {args.trace} ({len(tracer.events)} events)",
            file=sys.stderr,
        )
    if args.jsonl:
        write_jsonl(args.jsonl, tracer.events)
        print(f"wrote JSONL event log: {args.jsonl}", file=sys.stderr)
    # Host-side perf telemetry goes to stderr: stdout stays byte-identical
    # across machines (the determinism CI job compares it verbatim).
    ops_per_s = len(requests) / replay_wall_s if replay_wall_s > 0 else 0.0
    print(
        f"host perf: {len(requests)} requests in {replay_wall_s:.3f}s wall "
        f"({ops_per_s:,.0f} ops/s)",
        file=sys.stderr,
    )
    if args.summary:
        doc = {
            "allocator": args.allocator,
            "seed": args.seed,
            "requests": len(requests),
            "ftl": metrics,
            "registry": registry.snapshot(elapsed_us=ssd.metrics.last_finish_us),
            # Wall-clock telemetry (machine-dependent by nature); consumers
            # comparing summaries for determinism must ignore this key.
            "perf": {
                "wall_s": round(total_watch.elapsed_s(), 6),
                "replay_wall_s": round(replay_wall_s, 6),
                "ops_per_s": round(ops_per_s, 3),
            },
        }
        Path(args.summary).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote summary JSON: {args.summary}", file=sys.stderr)
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import TraceSummary, read_jsonl, render_report

    events = read_jsonl(args.trace)
    print(render_report(TraceSummary(events), offender_limit=args.limit))
    return 0


def _parse_axis_value(text: str) -> object:
    """``--over`` values: int, then float, then bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_axes(specs: Sequence[str]) -> List[Tuple[str, List[object]]]:
    axes: List[Tuple[str, List[object]]] = []
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep or not name or not values:
            # ValueError, not SystemExit: cmd_sweep turns it into the usage
            # exit code 2 (a bare SystemExit(str) would exit 1 and make a
            # typo indistinguishable from a failed cell).
            raise ValueError(f"bad --over {spec!r} (want AXIS=V1,V2,...)")
        axes.append((name, [_parse_axis_value(v) for v in values.split(",")]))
    return axes


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.exp import ResultCache, Sweep, SweepProgress, default_cache_dir
    from repro.exp import run as run_sweep
    from repro.exp.sweep import check_run_options
    from repro.policy import resolve_policies

    if args.preset == "device":
        base = SimConfig.device(
            seed=args.seed,
            chips=args.chips,
            blocks=args.blocks,
            allocator=args.allocator,
        )
    else:
        base = _testbed(args)
    base = _apply_fault_args(base, args)
    if args.fleet is not None:
        from repro.fleet import FleetConfig

        try:
            fleet = FleetConfig.from_spec(args.fleet) if args.fleet else FleetConfig()
        except (ValueError, OSError) as error:
            print(f"repro sweep: bad --fleet {args.fleet!r}: {error}", file=sys.stderr)
            return 2
        base = base.with_(fleet=fleet)
    if args.backend != "scalar":
        # backend is compare=False, so cell config hashes (and the result
        # cache) stay shared across backends — legal because the backends
        # are byte-identical
        base = base.with_(backend=args.backend)
    params = {}
    if args.methods:
        params["methods"] = args.methods.split(",")
    sweep = Sweep(args.task, base=base, params=params)
    try:
        # Checked before the grid expands, so --dry-run rejects them too;
        # left to run(), the ValueError would exit 1, the failed-cells code.
        check_run_options(args.workers, args.retries, args.cell_timeout)
        for name, values in _parse_axes(args.over):
            sweep = sweep.over(name, values)
        # expanding the grid builds (and so validates) every cell config,
        # and building each cell's policies refuses an unknown name or param
        cells = sweep.cells()
        for cell in cells:
            resolve_policies(cell.config.policies)
    except ValueError as error:
        print(f"repro sweep: {error}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(f"task: {sweep.task}")
        print(f"base config: {base.content_hash()}")
        print(f"cells: {len(cells)}")
        for cell in cells:
            print(f"  [{cell.index:4d}] {cell.label():40s} config={cell.config_hash}")
        return 0

    cache = None
    if args.cache_dir != "none":
        cache = ResultCache(
            Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        )

    def live_progress(snapshot: "SweepProgress") -> None:
        if snapshot.eta_s is None:
            eta = "eta ?"
        else:
            eta = f"eta {snapshot.eta_s:5.1f}s"
        line = (
            f"progress {snapshot.done}/{snapshot.total} cells "
            f"({snapshot.cached} cached"
            + (f", {snapshot.failed} failed" if snapshot.failed else "")
            + f") {snapshot.elapsed_s:.1f}s elapsed, {eta}"
        )
        end = "\n" if snapshot.done == snapshot.total else "\r"
        print(line, file=sys.stderr, end=end, flush=True)

    result = run_sweep(
        sweep,
        workers=args.workers,
        cache=cache,
        force=args.force,
        echo=None if args.progress else (lambda line: print(line, file=sys.stderr)),
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        progress=live_progress if args.progress else None,
    )
    failures = result.failures
    tail = f", {failures} FAILED" if failures else ""
    print(
        f"sweep {sweep.task}: {len(result.cells)} cells, "
        f"{result.cache_hits} cache hits, {result.cache_misses} misses "
        f"(workers={args.workers}){tail}"
    )
    print(f"sweep wall-clock: {result.wall_s:.2f}s", file=sys.stderr)
    for item in result.cells:
        state = "FAILED" if item.failed else ("hit" if item.cached else "run")
        print(f"  [{item.cell.index:4d}] {item.cell.label():40s} "
              f"config={item.cell.config_hash} {state}")
        if item.failed:
            print(
                f"         {item.result['error_type']}: {item.result['message']} "
                f"(after {item.result['attempts']} attempt(s))"
            )
    if args.manifest:
        doc = result.manifest()
        Path(args.manifest).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote sweep manifest: {args.manifest}", file=sys.stderr)
    return 1 if failures else 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from repro.exp.build import build_fleet
    from repro.fleet import FleetConfig
    from repro.obs import MetricsRegistry, Tracer, write_chrome, write_jsonl
    from repro.obs.export import to_jsonl

    try:
        fleet = FleetConfig.from_spec(args.fleet) if args.fleet else FleetConfig()
    except (ValueError, OSError) as error:
        print(f"repro fleet: bad fleet configuration: {error}", file=sys.stderr)
        return 2
    config = SimConfig.device(
        seed=args.seed, chips=args.chips, blocks=args.blocks
    ).with_(fleet=fleet)
    config = _apply_fault_args(config, args)

    tracer = Tracer()
    registry = MetricsRegistry()
    try:
        sim = build_fleet(config, tracer=tracer, registry=registry)
    except ValueError as error:
        print(f"repro fleet: {error}", file=sys.stderr)
        return 2
    print(
        f"serving {fleet.tenants} tenants x {fleet.requests_per_tenant} requests "
        f"over {fleet.devices} devices ...",
        file=sys.stderr,
    )
    report = sim.run()
    summary = report.summary()
    trace = to_jsonl(tracer.events)
    trace_sha = hashlib.sha256(trace.encode("utf-8")).hexdigest()

    counters = summary["counters"]
    print(
        f"fleet: {fleet.devices} devices x {fleet.replicas} replicas, "
        f"{fleet.tenants} tenants, seed {config.seed}"
    )
    print(
        f"requests: {summary['requests']} acked={counters['acked']} "
        f"failed={counters['failed']} (elapsed {summary['elapsed_us']:,.0f} us)"
    )
    for label, key in (
        ("all   ", "latency"),
        ("reads ", "read_latency"),
        ("writes", "write_latency"),
    ):
        tail = summary[key]
        print(
            f"  {label} n={tail['count']:6d} p50={tail['p50']:,.1f} "
            f"p99={tail['p99']:,.1f} p99.9={tail['p999']:,.1f} "
            f"p99.99={tail['p9999']:,.1f} max={tail['max']:,.1f} us"
        )
    print("tenants:")
    for row in summary["tenants"]:
        line = (
            f"  t{row['tenant']:03d} {row['profile']:10s} "
            f"acked={row['acked']:4d} failed={row['failed']:2d} "
            f"misses={row['deadline_misses']:2d}"
        )
        if "latency" in row:
            line += (
                f" p50={row['latency']['p50']:,.1f} "
                f"p99={row['latency']['p99']:,.1f} us"
            )
        print(line)
    print("devices:")
    for row in summary["devices"]:
        state = " EJECTED" if row["ejected"] else ""
        print(
            f"  dev{row['device']} submissions={row['submissions']:5d} "
            f"breaker={row['breaker_state']}/{row['breaker_opens']} "
            f"hard_faults={row['hard_faults']}{state}"
        )
    print(
        "counters: "
        + " ".join(
            f"{name}={counters[name]}"
            for name in (
                "hedges",
                "hedge_wins",
                "retries",
                "rejections",
                "forced_dispatches",
                "deadline_misses",
                "breaker_opens",
                "ejections",
                "media_faults",
                "device_errors",
                "unmapped_reads",
            )
        )
    )
    print(f"trace sha256: {trace_sha}")

    if args.trace:
        write_chrome(args.trace, tracer.events)
        print(
            f"wrote Chrome trace: {args.trace} ({len(tracer.events)} events)",
            file=sys.stderr,
        )
    if args.jsonl:
        write_jsonl(args.jsonl, tracer.events)
        print(f"wrote JSONL event log: {args.jsonl}", file=sys.stderr)
    if args.summary:
        doc = dict(summary)
        doc["trace_sha256"] = trace_sha
        Path(args.summary).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote summary JSON: {args.summary}", file=sys.stderr)
    return 1 if counters["failed"] else 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.perf import (
        FULL,
        QUICK,
        compare_docs,
        hotspot_rows,
        profiled_replay,
        render_comparison,
        render_hotspots,
        render_profile,
        render_suite,
        run_suite,
        validate_bench_doc,
    )

    scale = FULL if args.full else QUICK

    if args.profile:
        print(render_profile(profiled_replay(scale)))
        return 0
    if args.hotspots:
        rows = hotspot_rows(scale, top=args.top)
        print(render_hotspots(rows))
        return 0

    if args.against:
        try:
            doc = json.loads(Path(args.against).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"repro bench: cannot read --against document: {error}",
                  file=sys.stderr)
            return 2
    else:
        doc = run_suite(
            scale,
            repetitions=args.repetitions,
            echo=lambda line: print(line, file=sys.stderr),
            backend=args.backend,
        )
        errors = validate_bench_doc(doc)
        if errors:
            for error in errors:
                print(f"repro bench: schema error: {error}", file=sys.stderr)
            return 2
        out = Path(args.output) if args.output else Path(f"BENCH_{doc['git_sha']}.json")
        out.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(render_suite(doc))
        print(f"wrote bench document: {out}", file=sys.stderr)

    gate_failed = False
    if args.min_vector_speedup is not None:
        entry = doc.get("metrics", {}).get("replay_vector_speedup")
        speedup = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
            print(
                "repro bench: document has no replay_vector_speedup metric "
                "(regenerate it with 'repro bench')",
                file=sys.stderr,
            )
            return 2
        verdict = "ok" if speedup >= args.min_vector_speedup else "FAIL"
        print(
            f"vector speedup gate: {speedup:.2f}x "
            f"(required >= {args.min_vector_speedup:.2f}x) {verdict}"
        )
        gate_failed = speedup < args.min_vector_speedup

    if args.compare:
        try:
            baseline = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"repro bench: cannot read baseline: {error}", file=sys.stderr)
            return 2
        tolerance_scale = args.tolerance_scale
        if tolerance_scale is None:
            import os

            raw = os.environ.get("REPRO_BENCH_TOLERANCE_SCALE", "1")
            try:
                tolerance_scale = float(raw)
            except ValueError:
                print(
                    f"repro bench: bad $REPRO_BENCH_TOLERANCE_SCALE {raw!r}",
                    file=sys.stderr,
                )
                return 2
        if not math.isfinite(tolerance_scale) or tolerance_scale <= 0:
            print(
                f"repro bench: tolerance scale must be positive, got "
                f"{tolerance_scale}",
                file=sys.stderr,
            )
            return 2
        outcome = compare_docs(doc, baseline, scale=tolerance_scale)
        print(render_comparison(outcome))
        return 0 if outcome.passed and not gate_failed else 1
    return 1 if gate_failed else 0


def cmd_overhead(args: argparse.Namespace) -> int:
    print("Computing overhead (Section VI-B2):")
    print(
        f"  STR-MED({args.window}) pair checks per superblock: "
        f"{str_med_pair_checks(args.window, args.chips):,}"
    )
    print(
        f"  QSTR-MED(depth {args.depth}) pair checks per superblock: "
        f"{qstr_med_pair_checks(args.chips, args.depth):,}"
    )
    print(
        f"  reduction: {overhead_reduction_pct(args.window, args.chips, args.depth):.2f}%"
    )
    footprint = FootprintModel(PAPER_GEOMETRY)
    print("\nSpace overhead (Section VI-D1 / Equation 2):")
    print(f"  bytes per block: {footprint.bytes_per_block}")
    print(f"  1 TB SSD footprint: {format_bytes(footprint.footprint_bytes(TIB))}")
    return 0


_DEFAULT_LINT_PATHS = ("src", "benchmarks", "examples", "tools")


def _changed_files(cwd: Path) -> Optional[Set[Path]]:
    """Resolved paths changed vs HEAD (worktree, index, untracked).

    Every git command runs from the repository top, so each name it prints
    is relative to that top, whichever subdirectory ``repro lint`` runs in.
    """
    import subprocess

    def git(*command: str, where: Path) -> Optional[List[str]]:
        try:
            proc = subprocess.run(
                ["git", *command],
                cwd=where,
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return [line.strip() for line in proc.stdout.splitlines() if line.strip()]

    top = git("rev-parse", "--show-toplevel", where=cwd)
    if not top:
        return None
    root = Path(top[0])
    names: Set[Path] = set()
    for command in (
        ("diff", "--name-only", "HEAD"),
        ("diff", "--name-only", "--cached"),
        ("ls-files", "--others", "--exclude-standard"),
    ):
        listed = git(*command, where=root)
        if listed is None:
            return None
        names.update((root / name).resolve() for name in listed)
    return names


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_paths, render_json, render_text

    if args.paths:
        missing = [p for p in args.paths if not Path(p).exists()]
        if missing:
            print(
                f"repro lint: no such path(s): {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
        paths: Sequence[str] = args.paths
    else:
        paths = [p for p in _DEFAULT_LINT_PATHS if Path(p).exists()]
        if not paths:
            print("repro lint: no lintable paths found in cwd", file=sys.stderr)
            return 2
    root = Path.cwd()
    findings = lint_paths(paths, root=root)
    if args.changed:
        changed = _changed_files(root)
        if changed is None:
            print("repro lint: --changed needs a git checkout", file=sys.stderr)
            return 2
        findings = [f for f in findings if (root / f.path).resolve() in changed]

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Are Superpages Super-fast?' (HPCA 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="reproduce Tables I/II/V")
    tables.add_argument("--table", choices=["1", "2", "5", "all"], default="all")
    _add_scale_args(tables)
    tables.set_defaults(func=cmd_tables)

    figures = sub.add_parser("figures", help="print Figures 5/6/13/14")
    figures.add_argument("--figure", choices=["5", "6", "13", "14", "all"], default="all")
    _add_scale_args(figures)
    figures.set_defaults(func=cmd_figures)

    replay = sub.add_parser("replay", help="replay a trace on the simulated SSD")
    replay.add_argument("--trace", help="trace CSV (default: synthetic fill+zipf)")
    replay.add_argument(
        "--allocator",
        choices=ALLOCATOR_KINDS,
        default="qstr",
    )
    replay.add_argument("--interarrival-us", type=float, default=8000.0)
    replay.add_argument("--blocks", type=int, default=48)
    replay.add_argument("--chips", type=int, default=4)
    replay.add_argument("--seed", type=int, default=2024)
    _add_backend_arg(replay)
    _add_policy_arg(replay)
    replay.set_defaults(func=cmd_replay)

    run = sub.add_parser(
        "run", help="run a traced synthetic workload on the simulated SSD"
    )
    run.add_argument("--trace", help="write a Chrome trace_event JSON here")
    run.add_argument("--jsonl", help="write the raw JSONL event log here")
    run.add_argument("--summary", help="write a JSON metrics summary here")
    run.add_argument(
        "--requests", type=int, default=None, help="cap the workload length"
    )
    run.add_argument(
        "--allocator",
        choices=ALLOCATOR_KINDS,
        default="qstr",
    )
    run.add_argument("--interarrival-us", type=float, default=8000.0)
    run.add_argument("--blocks", type=int, default=48)
    run.add_argument("--chips", type=int, default=4)
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject faults: 'program=P,erase=P' rates or '@plan.json'",
    )
    _add_backend_arg(run)
    _add_policy_arg(run)
    run.set_defaults(func=cmd_run)

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="summarize a JSONL event log from 'repro run --jsonl'"
    )
    obs_report.add_argument("trace", help="JSONL event log path")
    obs_report.add_argument(
        "--limit", type=int, default=10, help="attribution rows to show"
    )
    obs_report.set_defaults(func=cmd_obs_report)

    from repro.exp import TASKS

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep in parallel with content-hash result caching",
    )
    sweep.add_argument("--task", choices=sorted(TASKS), default="methods")
    sweep.add_argument(
        "--preset",
        choices=["testbed", "device"],
        default="testbed",
        help="base config: assembly-study testbed or replay/run device stack",
    )
    sweep.add_argument("--blocks", type=int, default=400, help="pool blocks per chip")
    sweep.add_argument("--chips", type=int, default=4, help="chips (lanes)")
    sweep.add_argument("--seed", type=int, default=2024, help="base root seed")
    sweep.add_argument(
        "--allocator",
        choices=ALLOCATOR_KINDS,
        default="qstr",
        help="device-preset allocator",
    )
    sweep.add_argument(
        "--methods", help="comma-separated method names for the methods task"
    )
    sweep.add_argument(
        "--over",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="add a sweep axis (repeatable); 'seed' derives per-cell seeds",
    )
    sweep.add_argument("--workers", type=int, default=1, help="process-pool size")
    sweep.add_argument(
        "--faults",
        metavar="SPEC",
        help="base-config fault plan: 'program=P,erase=P' or '@plan.json'",
    )
    sweep.add_argument(
        "--fleet",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="attach a fleet layer to the base config (for --task fleet): "
        "'key=value,...' over FleetConfig fields or '@fleet.json'; bare "
        "--fleet uses the defaults",
    )
    _add_backend_arg(sweep)
    _add_policy_arg(sweep)
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per cell before it is retried/failed",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a raising/timed-out cell this many times (seed-stable backoff)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default $REPRO_SWEEP_CACHE or "
        f"{DEFAULT_CACHE_DIR}; 'none' disables caching)",
    )
    sweep.add_argument(
        "--force", action="store_true", help="recompute even on cache hits"
    )
    sweep.add_argument(
        "--dry-run", action="store_true", help="print the expanded grid and exit"
    )
    sweep.add_argument("--manifest", help="write the sweep manifest JSON here")
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="live progress line (done/cached/failed, elapsed, ETA) on stderr "
        "instead of per-cell echo",
    )
    sweep.set_defaults(func=cmd_sweep)

    fleet = sub.add_parser(
        "fleet",
        help="serve a sharded multi-tenant workload over N simulated SSDs",
    )
    fleet.add_argument(
        "--fleet",
        default=None,
        metavar="SPEC",
        help="fleet configuration: 'key=value,...' over FleetConfig fields "
        "(profiles takes a +-separated list) or '@fleet.json'",
    )
    fleet.add_argument("--blocks", type=int, default=24, help="blocks per plane")
    fleet.add_argument("--chips", type=int, default=4, help="chips (lanes) per device")
    fleet.add_argument("--seed", type=int, default=2024)
    fleet.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault plan for the fault device: 'program=P,erase=P' or '@plan.json'",
    )
    _add_policy_arg(fleet)
    fleet.add_argument("--trace", help="write a Chrome trace_event JSON here")
    fleet.add_argument("--jsonl", help="write the raw JSONL event log here")
    fleet.add_argument("--summary", help="write the QoS summary JSON here")
    fleet.set_defaults(func=cmd_fleet)

    bench = sub.add_parser(
        "bench",
        help="wall-clock benchmark suite with baseline regression gate",
    )
    bench_scale = bench.add_mutually_exclusive_group()
    bench_scale.add_argument(
        "--quick",
        action="store_true",
        help="pinned quick suite (default; the one CI runs)",
    )
    bench_scale.add_argument(
        "--full", action="store_true", help="larger suite, more repetitions"
    )
    bench.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override median-of-N repetition count",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="bench document path (default BENCH_<git-sha>.json)",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="compare against a baseline BENCH_*.json; exit 1 on regression",
    )
    bench.add_argument(
        "--against",
        metavar="CURRENT",
        default=None,
        help="load an existing bench document instead of running the suite "
        "(for CI run-vs-run agreement checks)",
    )
    bench.add_argument(
        "--tolerance-scale",
        type=float,
        default=None,
        help="multiply every metric's noise tolerance band "
        "(default $REPRO_BENCH_TOLERANCE_SCALE or 1.0)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="print a hierarchical wall-time profile of one replay and exit",
    )
    bench.add_argument(
        "--hotspots",
        action="store_true",
        help="cProfile deep mode: the hottest functions of one replay",
    )
    bench.add_argument(
        "--top", type=int, default=15, help="row count for --hotspots"
    )
    _add_backend_arg(bench)
    bench.add_argument(
        "--min-vector-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) unless replay_vector_speedup >= X "
        "(the vectorization acceptance gate)",
    )
    bench.set_defaults(func=cmd_bench)

    overhead = sub.add_parser("overhead", help="Section VI overhead numbers")
    overhead.add_argument("--window", type=int, default=4)
    overhead.add_argument("--chips", type=int, default=4)
    overhead.add_argument("--depth", type=int, default=4)
    overhead.set_defaults(func=cmd_overhead)

    lint = sub.add_parser(
        "lint", help="run the reprolint simulation-invariant checks"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src benchmarks examples tools)",
    )
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for files changed vs git HEAD "
        "(the whole-program graph is still built over all paths)",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
