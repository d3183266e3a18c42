"""Registered sweep tasks: what one grid cell computes.

A task is a named, top-level (hence picklable across
``ProcessPoolExecutor`` workers) function ``fn(config, params) -> dict``
returning plain JSON types.  Each task declares the ``repro.*`` modules its
result depends on; the sweep runner hashes those sources into the cache key
(the *code-version salt*), so editing a covered module invalidates exactly
that task's cached cells.

Built-ins:

* ``methods`` — probe the configured pools and evaluate assembly methods
  against the shared random baseline (the Table I/II/V & Figure 12–15 cell);
* ``replay`` — run the configured host workload through the full FTL+SSD
  stack and report latency/WA metrics (the ``repro replay`` cell);
* ``fleet`` — serve the sharded multi-tenant fleet workload over N devices
  and report fleet/per-tenant tail QoS plus the trace sha256 (the
  ``repro fleet`` cell).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.assembly.evaluate import MethodResult
from repro.exp.build import build_fleet, build_stack
from repro.exp.config import SimConfig
from repro.exp.methods import DEFAULT_METHODS, MethodEvaluator
from repro.fleet.config import FleetConfig
from repro.obs.export import to_jsonl
from repro.obs.tracer import Tracer
from repro.workloads.replay import Replayer

TaskFn = Callable[[SimConfig, Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class Task:
    """One registered cell computation."""

    name: str
    fn: TaskFn
    modules: Tuple[str, ...]
    description: str


TASKS: Dict[str, Task] = {}


def register_task(
    name: str, *, modules: Tuple[str, ...], description: str = ""
) -> Callable[[TaskFn], TaskFn]:
    """Register ``fn`` as the sweep task ``name``.

    ``modules`` are the dotted ``repro.*`` (sub)packages whose source feeds
    the task's code-version salt; list every layer the result depends on.
    """

    def decorate(fn: TaskFn) -> TaskFn:
        if name in TASKS:
            raise ValueError(f"task {name!r} already registered")
        TASKS[name] = Task(name=name, fn=fn, modules=modules, description=description)
        return fn

    return decorate


def _result_doc(result: MethodResult) -> Dict[str, Any]:
    return {
        "mean_extra_program_us": result.mean_extra_program_us,
        "mean_extra_erase_us": result.mean_extra_erase_us,
        "superblocks": result.superblock_count,
        "combinations_checked": result.combinations_checked,
        "pair_checks": result.pair_checks,
    }


@register_task(
    "methods",
    modules=(
        "repro.utils",
        "repro.faults",
        "repro.nand",
        "repro.characterization",
        "repro.assembly",
        "repro.core",
        "repro.policy",
        "repro.exp",
    ),
    description="evaluate assembly methods over probed pools vs the random baseline",
)
def methods_task(config: SimConfig, params: Dict[str, Any]) -> Dict[str, Any]:
    """One (config, method set) cell of the assembly study."""
    names: List[str] = list(params.get("methods") or DEFAULT_METHODS)
    stack = build_stack(config)
    evaluator = MethodEvaluator(stack.pools())
    baseline = evaluator.result("RANDOM")
    methods: Dict[str, Any] = {}
    for name in names:
        row = evaluator.row(name)
        methods[name] = {
            **_result_doc(row.result),
            "improvement_pct": row.improvement_pct,
            "erase_improvement_pct": row.erase_improvement_pct,
            "reduction_us": row.reduction_us,
        }
    return {
        "baseline": _result_doc(baseline),
        "methods": methods,
        "pe_cycles": config.pe_cycles,
    }


@register_task(
    "replay",
    modules=(
        "repro.utils",
        "repro.obs",
        "repro.faults",
        "repro.nand",
        "repro.characterization",
        "repro.assembly",
        "repro.core",
        "repro.policy",
        "repro.ftl",
        "repro.ssd",
        "repro.workloads",
        "repro.exp",
    ),
    description="replay the configured workload through the full FTL+SSD stack",
)
def replay_task(config: SimConfig, params: Dict[str, Any]) -> Dict[str, Any]:
    """One end-to-end device cell: host-visible latency plus FTL metrics."""
    stack = build_stack(config)
    requests = stack.requests()
    report = Replayer(stack.ssd).replay(requests)
    return {
        "allocator": config.allocator,
        "requests": len(requests),
        "latency": {op: dict(summary) for op, summary in report.summary().items()},
        "ftl": dict(stack.ftl.metrics.summary()),
    }


@register_task(
    "fleet",
    modules=(
        "repro.utils",
        "repro.obs",
        "repro.faults",
        "repro.nand",
        "repro.characterization",
        "repro.assembly",
        "repro.core",
        "repro.policy",
        "repro.ftl",
        "repro.ssd",
        "repro.workloads",
        "repro.fleet",
        "repro.exp",
    ),
    description="serve the sharded multi-tenant workload over a device fleet",
)
def fleet_task(config: SimConfig, params: Dict[str, Any]) -> Dict[str, Any]:
    """One fleet serving cell: tail QoS summary plus the trace fingerprint.

    Always runs traced: the sha256 of the canonical JSONL serving trace
    lands in the result (hence the sweep manifest), which is what the
    serial-vs-parallel byte-identity gate compares.
    """
    if config.fleet is None:
        config = config.with_(fleet=FleetConfig())
    tracer = Tracer()
    report = build_fleet(config, tracer=tracer).run()
    summary = report.summary()
    trace = to_jsonl(tracer.events)
    summary["trace_events"] = len(tracer.events)
    summary["trace_sha256"] = hashlib.sha256(trace.encode("utf-8")).hexdigest()
    return summary
