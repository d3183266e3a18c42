"""Layering: the ``utils → … → ssd → workloads/analysis/cli`` DAG holds.

The declarative map lives in :mod:`repro.lint.layers`; this rule walks every
runtime import (``TYPE_CHECKING`` blocks are exempt — they vanish at runtime)
and reports edges the map does not allow.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.findings import Finding
from repro.lint.layers import is_allowed_import, layer_of
from repro.lint.project import ModuleInfo
from repro.lint.registry import Rule, register_rule
from repro.lint.rules.common import walk_runtime


def _resolve_relative(module: str, level: int, target: str) -> str:
    """Absolute dotted name for a ``from ...x import y`` statement."""
    parts = module.split(".")
    base: List[str] = parts[: max(0, len(parts) - level)]
    if target:
        base.append(target)
    return ".".join(base)


@register_rule
class LayerViolation(Rule):
    code = "LAY001"
    name = "layer-violation"
    description = (
        "import inverts the repro layer DAG (utils → nand → characterization "
        "→ assembly → core → ftl → ssd → workloads/analysis/cli); see "
        "repro.lint.layers for the map and its reviewed exceptions"
    )
    scope_prefixes = ("repro",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in walk_runtime(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        yield from self._check_edge(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    target = _resolve_relative(
                        ctx.name, node.level, node.module or ""
                    )
                elif node.module is not None:
                    target = node.module
                else:
                    continue
                if target == "repro" or target.startswith("repro."):
                    yield from self._check_edge(ctx, node, target)

    def _check_edge(
        self, ctx: ModuleInfo, node: ast.stmt, target: str
    ) -> Iterator[Finding]:
        if is_allowed_import(ctx.name, target):
            return
        importer_layer = layer_of(ctx.name) or "top-level"
        target_layer = layer_of(target) or "top-level"
        yield ctx.finding(
            self,
            node,
            f"'{ctx.name}' (layer {importer_layer}) may not import "
            f"'{target}' (layer {target_layer}) — " + self.description,
        )
