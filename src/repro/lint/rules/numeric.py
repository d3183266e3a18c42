"""Numeric hygiene: no float-literal equality, no mutable default args.

Latency aggregation sums long chains of floats; ``x == 1.5`` silently turns
into "never true" after a units refactor, and a mutable default argument
shares state across calls — both have bitten latency-model codebases before.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo
from repro.lint.registry import Rule, register_rule


@register_rule
class FloatLiteralEquality(Rule):
    code = "NUM001"
    name = "float-literal-equality"
    description = (
        "exact ==/!= against a float literal is brittle for computed "
        "latencies; use math.isclose, an explicit tolerance, or compare "
        "integers"
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            ops_ok = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            if not ops_ok:
                continue
            if any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in operands
            ):
                yield ctx.finding(
                    self,
                    node,
                    "==/!= against a float literal — " + self.description,
                )


@register_rule
class MutableDefaultArgument(Rule):
    code = "NUM002"
    name = "mutable-default-argument"
    description = (
        "a list/dict/set default is created once and shared across calls; "
        "default to None (or use dataclasses.field(default_factory=...))"
    )

    _MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is not None and isinstance(default, self._MUTABLE):
                    yield ctx.finding(
                        self,
                        default,
                        "mutable default argument — " + self.description,
                    )
