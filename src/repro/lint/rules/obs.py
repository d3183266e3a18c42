"""Observability discipline: the tracer must never see the wall clock.

``repro.obs`` timestamps come exclusively from *simulated* time (the values
the timing model and the FTL hand it) — the whole point of the trace layer
is that two same-seed runs emit byte-identical files.  ``DET001`` already
bans specific wall-clock *calls* across the simulator; inside ``repro.obs``
the bar is higher: merely importing ``time`` or ``datetime`` (or reaching
them through ``importlib``) is a finding, because any use would be a
timestamp source the determinism guarantee cannot survive.

``repro.perf`` (wall-clock performance observability) is held to the same
module-hygiene bar with one carve-out: it may import and reference the
monotonic performance counter (``from time import perf_counter`` /
``perf_counter_ns``), because measuring host wall time is its whole job.
Everything else stays banned there too — ``import time`` wholesale,
``datetime``, ``time.time`` and friends — so the only clock the perf layer
can ever hold is the one the fence releases to it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, dotted_name
from repro.lint.registry import Rule, register_rule

#: modules whose import inside repro.obs / repro.perf is forbidden.
_CLOCK_MODULES = frozenset({"time", "datetime"})

#: the perf-only allowance: bare monotonic counters, nothing else.
_PERF_ALLOWED_NAMES = frozenset({"perf_counter", "perf_counter_ns"})
_PERF_ALLOWED_DOTTED = frozenset({"time.perf_counter", "time.perf_counter_ns"})


def _in_perf(module: str) -> bool:
    return module == "repro.perf" or module.startswith("repro.perf.")


@register_rule
class WallClockModuleInObs(Rule):
    code = "OBS001"
    name = "wall-clock-module-in-obs"
    description = (
        "repro.obs timestamps must come from simulated time only; importing "
        "or referencing the 'time'/'datetime' modules inside the tracer "
        "layer breaks the byte-identical-trace guarantee (repro.perf may "
        "import only time.perf_counter / perf_counter_ns)"
    )
    scope_prefixes = ("repro.obs", "repro.perf")

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        in_perf = _in_perf(ctx.name)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _CLOCK_MODULES:
                        yield ctx.finding(
                            self,
                            node,
                            f"import of '{alias.name}' — " + self.description,
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                root = module.split(".")[0]
                if root in _CLOCK_MODULES:
                    if (
                        in_perf
                        and module == "time"
                        and all(
                            alias.name in _PERF_ALLOWED_NAMES
                            for alias in node.names
                        )
                    ):
                        continue
                    yield ctx.finding(
                        self,
                        node,
                        f"import from '{module}' — " + self.description,
                    )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is not None and dotted.split(".")[0] in _CLOCK_MODULES:
                    if in_perf and dotted in _PERF_ALLOWED_DOTTED:
                        continue
                    yield ctx.finding(
                        self,
                        node,
                        f"reference to '{dotted}' — " + self.description,
                    )
            elif isinstance(node, ast.Call):
                # importlib.import_module("time") and __import__("time")
                callee = dotted_name(node.func)
                if callee in ("importlib.import_module", "__import__"):
                    if node.args and isinstance(node.args[0], ast.Constant):
                        value = node.args[0].value
                        if (
                            isinstance(value, str)
                            and value.split(".")[0] in _CLOCK_MODULES
                        ):
                            yield ctx.finding(
                                self,
                                node,
                                f"dynamic import of '{value}' — "
                                + self.description,
                            )
