"""Span recording around each layer's public entry points.

The traced run wraps, at class or module level and from the benchmark's own
files, the calls a layer exposes to the layers above it (``Ftl.write``,
``FlashChip.program_wordline``, ``Ssd.submit``, ``FleetSim.run``,
``Prober.probe_block``, every assembler's ``assemble``, the workload
generators, ``LatencyStat.add``, ...).  Nothing under ``src/`` is edited:
:class:`Patches` swaps attributes in and restores them afterwards.

A span is ``(name, layer, start, end, parent, request)``; spans live in
flat arrays in memory and are written out once, after measuring.  A span's
*self time* is its duration minus the part its child spans and the
intervals the drift clock excludes (calibration slices, bookkeeping) cover (:func:`self_times`).  Because calls nest,
child intervals never overlap, so "the part they cover" is their sum.
"""

from __future__ import annotations

import bisect
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers in report order; each is a package under ``src/repro``.
LAYERS: Tuple[str, ...] = (
    "exp",
    "workloads",
    "ftl",
    "core",
    "nand",
    "ssd",
    "faults",
    "policy",
    "fleet",
    "characterization",
    "assembly",
    "kernels",
    "obs",
)

#: Entry points per layer: (module, class or None, attribute names).
#: ``None`` as the class wraps module-level functions (and every alias a
#: ``from ... import`` made of them in other ``repro`` modules).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("exp", "repro.exp.build", None, ("build_stack", "build_fleet")),
    ("exp", "repro.exp.build", "Stack", ("__init__", "pools", "ssd", "requests")),
    ("workloads", "repro.exp.build", None, ("synthetic_requests",)),
    (
        "workloads",
        "repro.workloads.synthetic",
        None,
        (
            "sequential_fill",
            "uniform_random_writes",
            "zipf_writes",
            "mixed_read_write",
            "hot_cold_writes",
            "small_large_mix",
        ),
    ),
    ("workloads", "repro.workloads.synthetic", "ArrivalProcess", ("times",)),
    ("workloads", "repro.workloads.model", None, ("clamp_requests",)),
    ("workloads", "repro.workloads.replay", "Replayer", ("replay",)),
    ("workloads", "repro.fleet.tenants", None, ("fleet_workload", "tenant_stream")),
    ("ftl", "repro.ftl.ftl", "Ftl", ("__init__", "format", "write", "read", "flush", "trim")),
    ("core", "repro.core.gathering", "GatheringUnit", ("open_block", "report", "gather_measurement")),
    (
        "core",
        "repro.core.scheme",
        "QstrMedScheme",
        ("__init__", "assemble_for", "assemble", "note_wordline_programmed", "note_block_freed"),
    ),
    ("core", "repro.core.scheme", "QstrMedAssembler", ("assemble",)),
    ("core", "repro.core.assembler", "OnDemandAssembler", ("assemble", "release")),
    (
        "nand",
        "repro.nand.chip",
        "FlashChip",
        ("__init__", "program_wordline", "program_block", "read_page", "erase_block", "stress_block"),
    ),
    ("nand", "repro.nand.variation", "VariationModel", ("__init__", "chip_profile")),
    ("ssd", "repro.ssd.device", "Ssd", ("__init__", "submit")),
    ("ssd", "repro.ssd.timing", "ResourceClock", ("acquire",)),
    (
        "faults",
        "repro.faults.injector",
        "NullInjector",
        ("advance", "fail_program", "fail_erase", "read_rber_multiplier", "plane_dead"),
    ),
    (
        "faults",
        "repro.faults.injector",
        "FaultInjector",
        ("advance", "fail_program", "fail_erase", "read_rber_multiplier", "plane_dead"),
    ),
    ("faults", "repro.faults.injector", None, ("make_injector",)),
    ("policy", "repro.policy.resolve", None, ("resolve_policies",)),
    ("fleet", "repro.fleet.engine", "FleetSim", ("__init__", "run")),
    ("characterization", "repro.characterization.prober", "Prober", ("probe_block",)),
    ("characterization", "repro.assembly.pools", None, ("build_lane_pools",)),
    ("assembly", "repro.analysis.experiments", None, ("run_methods",)),
    ("assembly", "repro.exp.methods", "MethodEvaluator", ("result",)),
    ("assembly", "repro.assembly.evaluate", None, ("evaluate_assembler", "collect_result")),
    ("assembly", "repro.assembly.base", "ZipAssembler", ("assemble",)),
    ("assembly", "repro.assembly.base", "WindowedAssembler", ("assemble",)),
    ("kernels", "repro.kernels.engine", "VectorFtl", ("format", "write", "read", "trim", "flush")),
    ("kernels", "repro.kernels.engine", "VectorSsd", ("__init__",)),
    ("obs", "repro.obs.histograms", "LatencyStat", ("add", "extend")),
    ("obs", "repro.obs.registry", "Counter", ("inc",)),
    ("obs", "repro.obs.registry", "UtilizationTimeline", ("record",)),
    ("obs", "repro.obs.registry", "MetricsRegistry", ("counter", "histogram", "timeline")),
    ("obs", "repro.obs.tracer", "NullTracer", ("advance", "complete", "instant", "counter")),
    ("obs", "repro.obs.tracer", "Tracer", ("complete", "instant", "counter")),
)

#: Decision methods of the policy layer, wrapped on every policy class.
POLICY_METHODS = ("choose", "choose_member", "observe_program", "place", "observe_flush", "pick", "draft")
#: Kernel modules whose public functions are wrapped.
KERNEL_MODULES = ("repro.kernels.reliability", "repro.kernels.signatures", "repro.kernels.variation", "repro.kernels.workload")


class Patches:
    """Attribute swaps undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_method(self, cls: type, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Wrap ``cls.name`` (function or property getter) as defined on ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, property):
            self.set(cls, name, property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__))  # type: ignore[arg-type]
        else:
            self.set(cls, name, make(raw))

    def wrap_function(self, module: Any, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Wrap a module function and every ``repro`` module's alias of it."""
        original = getattr(module, name)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and other.__dict__.get(name) is original:
                self.set(other, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class SpanRecorder:
    """Flat in-memory span store with a call stack for parents.

    ``start``/``end`` are ``perf_counter`` seconds.  ``request`` is the id
    of the device request being served (``-1`` outside any request).
    Intervals the drift clock excludes (its calibration slices and the
    benchmark's own bookkeeping) are kept apart.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.excluded: List[Tuple[float, float]] = []
        self.stack: List[int] = []
        self.request_id = -1
        self._next_request = 0
        self.counts: Dict[str, float] = {}

    def intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[key]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def on_exclude(self, begin: float, end: float) -> None:
        self.excluded.append((begin, end))

    def wrapper(self, fn: Callable[..., Any], name: str, layer: str, new_request: bool = False) -> Callable[..., Any]:
        """A function that records one span around each call of ``fn``."""
        ident = self.intern(name, layer)
        stack, parent, request, start, end = self.stack, self.parent, self.request, self.start, self.end
        name_ids = self.name_id
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            outer_request = self.request_id
            if new_request:
                self.request_id = self._next_request
                self._next_request += 1
            index = len(name_ids)
            name_ids.append(ident)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                self.request_id = outer_request

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- aggregation ----------------------------------------------------------

    def layer_self_seconds(self, windows: Sequence[Tuple[float, float]]) -> List[Dict[str, float]]:
        """Per window, self seconds per layer of the spans that started in it."""
        selfs = self_times(self.start, self.end, self.parent, self.excluded)
        result = []
        for begin, finish in windows:
            totals = {layer: 0.0 for layer in LAYERS}
            lo = bisect.bisect_left(self.start, begin)
            hi = bisect.bisect_right(self.start, finish)
            for index in range(lo, hi):
                totals[self.layers[self.name_id[index]]] += selfs[index]
            result.append(totals)
        return result

    def calls(self) -> Dict[str, int]:
        """Recorded spans per entry-point name."""
        per_ident = Counter(self.name_id)
        return {self.names[ident]: n for ident, n in per_ident.items()}

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped JSON lines.

        The first line names the fields and the entry points; each span row
        is ``[entry point index, start_us, end_us, parent row, request]``
        with times in µs from the first span; then one ``[start_us,
        end_us]`` row per excluded interval.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        header = {
            "span_fields": ["entry", "start_us", "end_us", "parent", "request"],
            "entries": [[name, layer] for name, layer in zip(self.names, self.layers)],
            "spans": len(self.start),
            "excluded": len(self.excluded),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for ident, s, e, p, r in zip(self.name_id, self.start, self.end, self.parent, self.request):
                fh.write(f"[{ident},{(s - origin) * 1e6:.3f},{(e - origin) * 1e6:.3f},{p},{r}]\n")
            for s, e in self.excluded:
                fh.write(f"[{(s - origin) * 1e6:.3f},{(e - origin) * 1e6:.3f}]\n")


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    excluded: Iterable[Tuple[float, float]] = (),
) -> List[float]:
    """Each span's duration minus what its children and excluded intervals cover.

    Spans must be indexed in start order with ``parents[i] < i`` (or -1),
    as a call stack produces them.  An excluded interval is charged to the
    innermost span containing it; intervals outside every span are dropped.
    """
    result = [e - s for s, e in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            result[parent] -= ends[index] - starts[index]
    for begin, finish in excluded:
        index = bisect.bisect_right(starts, begin) - 1
        while index >= 0 and ends[index] < finish:
            index = parents[index]
        if index >= 0:
            result[index] -= finish - begin
    return result


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _import_all() -> None:
    for _, module, _, _ in ENTRY_POINTS:
        importlib.import_module(module)
    for module in KERNEL_MODULES + ("repro.policy.static", "repro.policy.learned"):
        importlib.import_module(module)


def _counting(recorder: SpanRecorder, name: str) -> Optional[Callable[[Callable[..., Any]], Callable[..., Any]]]:
    """Boundary counters that need a call's arguments or result."""
    if name == "Ftl.read":

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def read(self: Any, lpn: int) -> Any:
                result = fn(self, lpn)
                recorder.count("ftl.reads")
                if result.buffer_hit:
                    recorder.count("ftl.read_buffer_hits")
                if not result.located:
                    recorder.count("ftl.unmapped_reads")
                return result

            return read

        return make
    if name == "ResourceClock.acquire":

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def acquire(self: Any, now_us: float, duration_us: float) -> Any:
                if self.name.startswith("die"):
                    recorder.count("ssd.die_acquires")
                    recorder.count("ssd.die_wait_us", max(0.0, self.busy_until_us - now_us))
                return fn(self, now_us, duration_us)

            return acquire

        return make
    return None


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer entry point so calls record spans into ``recorder``."""
    _import_all()
    targets: List[Tuple[str, Any, Optional[type], str]] = []
    for layer, module_name, class_name, attrs in ENTRY_POINTS:
        module = sys.modules[module_name]
        cls = getattr(module, class_name) if class_name else None
        targets.extend((layer, module, cls, attr) for attr in attrs)
    from repro.policy.base import Policy

    policy_classes = [Policy]
    for cls in policy_classes:
        policy_classes.extend(cls.__subclasses__())
    for cls in policy_classes:
        targets.extend(("policy", None, cls, attr) for attr in POLICY_METHODS if attr in cls.__dict__)
    for module_name in KERNEL_MODULES:
        module = sys.modules[module_name]
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module_name and not attr.startswith("_"):
                targets.append(("kernels", module, None, attr))

    for layer, module, cls, attr in targets:
        name = f"{cls.__name__}.{attr}" if cls is not None else attr
        counting = _counting(recorder, name)

        def make(fn: Callable[..., Any], name: str = name, layer: str = layer, counting: Any = counting) -> Callable[..., Any]:
            traced = recorder.wrapper(fn, name, layer, new_request=(name == "Ssd.submit"))
            return counting(traced) if counting is not None else traced

        if cls is not None:
            patches.wrap_method(cls, attr, make)
        else:
            patches.wrap_function(module, attr, make)
