"""Determinism: no wall-clock reads or unordered iteration in the simulator.

Simulated time is advanced explicitly by the timing model
(:mod:`repro.ssd.timing`); any read of host wall-clock time inside
``repro.*`` couples results to the machine running them.  Likewise, iterating
a ``set`` directly leaks hash-order into block placement decisions — wrap it
in ``sorted(...)`` to fix the order.  Both rules are scoped to the simulator
package: benchmarks and tools may legitimately measure wall time.

One reviewed carve-out: ``repro.perf`` (the wall-clock performance
observability layer) may read ``time.perf_counter`` / ``perf_counter_ns`` —
it exists to measure the simulator from outside, and the whole-program
taint rules verify its durations never flow into simulation state.
Day-of-wall time, ``datetime`` and entropy sources stay banned even there.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, dotted_name
from repro.lint.registry import Rule, register_rule
from repro.lint.rules.common import walk_runtime

#: attribute chains whose *use* reads ambient entropy or wall-clock time.
_BANNED_DOTTED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

#: names that, imported bare from their module, are equally banned.
_BANNED_FROM_IMPORTS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

#: the one sanctioned carve-out: ``repro.perf`` owns the host clock.  Only
#: the monotonic performance counter is released to it — wall-of-day time,
#: datetime and entropy sources stay banned even there, and the
#: whole-program taint pass audits that perf-produced durations never reach
#: simulation state.
_PERF_PACKAGE = "repro.perf"
_PERF_ALLOWED_DOTTED = frozenset({"time.perf_counter", "time.perf_counter_ns"})
_PERF_ALLOWED_FROM = frozenset(
    {("time", "perf_counter"), ("time", "perf_counter_ns")}
)


def _in_perf_package(module: str) -> bool:
    return module == _PERF_PACKAGE or module.startswith(_PERF_PACKAGE + ".")


@register_rule
class WallClockRead(Rule):
    code = "DET001"
    name = "wall-clock-read"
    description = (
        "simulated time is advanced by the timing model; wall-clock/entropy "
        "reads (time.time, datetime.now, os.urandom, …) make runs machine-"
        "dependent"
    )
    scope_prefixes = ("repro",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        in_perf = _in_perf_package(ctx.name)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                tail = ".".join(dotted.split(".")[-2:])
                if dotted in _BANNED_DOTTED or tail in _BANNED_DOTTED:
                    if in_perf and (
                        dotted in _PERF_ALLOWED_DOTTED
                        or tail in _PERF_ALLOWED_DOTTED
                    ):
                        continue
                    yield ctx.finding(
                        self, node, f"use of '{dotted}' — " + self.description
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    if (module, alias.name) in _BANNED_FROM_IMPORTS:
                        if in_perf and (module, alias.name) in _PERF_ALLOWED_FROM:
                            continue
                        yield ctx.finding(
                            self,
                            node,
                            f"import of '{module}.{alias.name}' — "
                            + self.description,
                        )


@register_rule
class UnorderedSetIteration(Rule):
    code = "DET002"
    name = "unordered-set-iteration"
    description = (
        "iterating a set leaks hash-order into simulation decisions; wrap it "
        "in sorted(...) to pin the order"
    )
    scope_prefixes = ("repro",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in walk_runtime(ctx.tree):
            iterable: Optional[ast.expr] = None
            if isinstance(node, ast.For):
                iterable = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterable = node.generators[0].iter
            if iterable is None:
                continue
            if self._is_bare_set(iterable):
                yield ctx.finding(
                    self,
                    iterable,
                    "direct iteration over a set — " + self.description,
                )

    @staticmethod
    def _is_bare_set(node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            return callee in ("set", "frozenset")
        return False
