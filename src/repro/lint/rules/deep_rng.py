"""Whole-program RNG stream-flow rules (RNG010-012).

The determinism contract (DESIGN.md §3) is *one derived stream per logical
consumer*: every generator comes from ``derive_seed(root_seed, *labels)``
with a label path unique to its consumer, and generators never travel —
workers re-derive from ``(seed, labels)``.  These rules check the whole
program for the three ways that contract breaks:

* **RNG010** — two call sites consume the same ``(seed, label)`` stream;
* **RNG011** — a live generator object crosses a process/worker boundary;
* **RNG012** — a stored generator is drawn from by several methods, so the
  stream's consumption order depends on caller sequencing.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.callgraph import iter_own_nodes
from repro.lint.dataflow import RNG
from repro.lint.findings import Finding, Severity
from repro.lint.project import dotted_name
from repro.lint.registry import ProgramContext, ProgramRule, register_rule

#: modules allowed to manipulate raw streams (they implement the contract).
_EXEMPT_MODULES = frozenset({"repro.utils.rng"})

_RNG_PRODUCER_TAILS = frozenset({"default_rng", "generator", "child", "spawn_pair"})
_RNG_DRAWS = frozenset(
    {
        "integers",
        "random",
        "normal",
        "standard_normal",
        "lognormal",
        "uniform",
        "exponential",
        "poisson",
        "binomial",
        "gamma",
        "choice",
        "shuffle",
        "permutation",
    }
)


@register_rule
class DuplicateSeedStream(ProgramRule):
    """RNG010: two call sites derive the same (seed, label) stream."""

    code = "RNG010"
    name = "duplicate-seed-stream"
    description = (
        "Two distinct call sites call derive_seed with the same root expression "
        "and an identical constant label tuple; both consumers would draw from "
        "one stream, so adding a draw in one silently reorders the other."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        #: (root_expr, labels) -> [(path, line, col, module)]
        sites: Dict[Tuple[str, Tuple[object, ...]], List[Tuple[str, int, int]]] = (
            defaultdict(list)
        )
        for module in sorted(ctx.project.modules):
            if module in _EXEMPT_MODULES:
                continue
            info = ctx.project.modules[module]
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None or dotted.split(".")[-1] != "derive_seed":
                    continue
                if len(node.args) < 2:
                    continue
                labels = node.args[1:]
                if not all(isinstance(label, ast.Constant) for label in labels):
                    continue  # parameterized labels vary per call — not a collision
                root = ast.unparse(node.args[0])
                key = (root, tuple(label.value for label in labels))  # type: ignore[union-attr]
                sites[key].append((info.path, node.lineno, node.col_offset))
        findings: List[Finding] = []
        for (root, labels), locations in sorted(sites.items(), key=lambda kv: kv[0][0]):
            distinct = sorted(set(locations))
            if len(distinct) < 2:
                continue
            label_repr = ", ".join(repr(label) for label in labels)
            for path, line, col in distinct:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=col,
                        code=self.code,
                        message=(
                            f"derive_seed({root}, {label_repr}) is consumed at "
                            f"{len(distinct)} call sites; each consumer needs its "
                            f"own label path"
                        ),
                        severity=Severity.ERROR,
                    )
                )
        return findings


@register_rule
class RngCrossesBoundary(ProgramRule):
    """RNG011: a generator object crosses a process/worker boundary."""

    code = "RNG011"
    name = "rng-crosses-process-boundary"
    description = (
        "A live numpy Generator is submitted to a process pool or passed into "
        "a marked sweep worker entrypoint; pickling copies its state, so the "
        "parent and worker streams silently diverge. Pass (seed, labels) and "
        "re-derive inside the worker."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        for hit in ctx.taint.sink_hits:
            if hit.kind == RNG and hit.sink == "boundary":
                yield ctx.finding(
                    path=hit.path,
                    line=hit.line,
                    col=hit.col,
                    code=self.code,
                    message=(
                        f"RNG generator crosses a process boundary via {hit.detail} "
                        f"in {hit.function}; pass (seed, labels) and re-derive in "
                        f"the worker"
                    ),
                )


@register_rule
class StoredGeneratorSharedDraws(ProgramRule):
    """RNG012: a stored generator is drawn from by several methods."""

    code = "RNG012"
    name = "stored-generator-shared-draws"
    description = (
        "A generator stored on an instance attribute is consumed by two or "
        "more methods; the stream's draw order then depends on the order "
        "callers happen to invoke those methods, breaking replay."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for class_qualname in sorted(ctx.project.classes):
            cls = ctx.project.classes[class_qualname]
            if cls.module in _EXEMPT_MODULES:
                continue
            info = ctx.project.modules.get(cls.module)
            if info is None:
                continue
            #: attr name -> line of the storing assignment
            stored: Dict[str, int] = {}
            for method in cls.methods.values():
                for node in iter_own_nodes(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    dotted = dotted_name(node.value.func)
                    if dotted is None:
                        continue
                    if dotted.split(".")[-1] not in _RNG_PRODUCER_TAILS:
                        continue
                    for target in node.targets:
                        attr = dotted_name(target)
                        if attr is not None and attr.startswith("self."):
                            stored.setdefault(attr[len("self."):], node.lineno)
            if not stored:
                continue
            drawers: Dict[str, Set[str]] = defaultdict(set)
            for method in cls.methods.values():
                for node in iter_own_nodes(method.node):
                    if not isinstance(node, ast.Call):
                        continue
                    dotted = dotted_name(node.func)
                    if dotted is None:
                        continue
                    parts = dotted.split(".")
                    if (
                        len(parts) == 3
                        and parts[0] == "self"
                        and parts[1] in stored
                        and parts[2] in _RNG_DRAWS
                    ):
                        drawers[parts[1]].add(method.name)
            for attr in sorted(drawers):
                methods = sorted(drawers[attr])
                if len(methods) < 2:
                    continue
                findings.append(
                    Finding(
                        path=info.path,
                        line=stored[attr],
                        col=0,
                        code=self.code,
                        message=(
                            f"generator self.{attr} of {class_qualname} is drawn "
                            f"from by {len(methods)} methods ({', '.join(methods)}); "
                            f"draw order depends on caller sequencing — derive one "
                            f"child stream per consumer"
                        ),
                        severity=Severity.ERROR,
                    )
                )
        return findings
