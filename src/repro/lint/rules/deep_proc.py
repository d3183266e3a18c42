"""Whole-program process-safety rules (PROC001-003).

``repro.exp.sweep.run(..., workers=N)`` promises bit-identical results to
the serial run.  That only holds if sweep workers are *functions of their
payload*: no module-level mutable state written inside the worker cone
(each forked process would mutate its own copy), no non-picklable callables
shipped across the pool, no lazy singletons initialized on first use inside
a worker (first-touch order differs per process).  Worker entrypoints are
marked with ``@worker_entrypoint`` (or ``@register_task``); the *cone* is
everything reachable from a marked function in the call graph.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.callgraph import iter_own_nodes
from repro.lint.dataflow import ENTRYPOINT_DECORATORS
from repro.lint.findings import Finding, Severity
from repro.lint.project import FunctionInfo, ModuleInfo, dotted_name
from repro.lint.registry import ProgramContext, ProgramRule, register_rule

_MUTATORS = frozenset(
    {"append", "extend", "add", "insert", "update", "setdefault", "pop", "remove", "clear"}
)
_PROCESS_EXECUTOR = "ProcessPoolExecutor"
_BOUNDARY_METHODS = frozenset({"submit", "map"})


def _worker_cone(ctx: ProgramContext) -> Dict[str, str]:
    """function qualname -> the entrypoint it is reachable from (first wins)."""
    cone: Dict[str, str] = {}
    seeds = sorted(
        fn.qualname
        for fn in ctx.project.functions.values()
        if fn.has_decorator(*ENTRYPOINT_DECORATORS)
    )
    for seed in seeds:
        for reached in sorted(ctx.graph.reachable([seed])):
            cone.setdefault(reached, seed)
    return cone


def _binding_names(target: ast.expr) -> Set[str]:
    """Names a target expression actually (re)binds.

    ``x[k] = v`` and ``x.f = v`` mutate ``x`` without binding it, so
    Subscript/Attribute targets contribute nothing.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names |= _binding_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _bound_names(fn: FunctionInfo) -> Set[str]:
    """Names the function binds locally (params + stores + loop/with targets)."""
    args = fn.node.args  # type: ignore[attr-defined]
    names = {a.arg for a in getattr(args, "posonlyargs", [])}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in iter_own_nodes(fn.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [
                item.optional_vars for item in node.items if item.optional_vars is not None
            ]
        elif isinstance(node, ast.comprehension):
            targets = [node.target]
        for target in targets:
            names |= _binding_names(target)
    return names


@register_rule
class GlobalMutableWrittenInWorker(ProgramRule):
    """PROC001: module-level mutable state written inside the worker cone."""

    code = "PROC001"
    name = "global-mutable-written-in-worker"
    description = (
        "A module-level dict/list/set is mutated by a function reachable from "
        "a sweep worker entrypoint; each forked worker mutates its own copy, "
        "so results depend on the worker/cell assignment."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        cone = _worker_cone(ctx)
        findings: List[Finding] = []
        for qualname in sorted(cone):
            fn = ctx.project.functions.get(qualname)
            if fn is None:
                continue
            info = ctx.project.modules.get(fn.module)
            if info is None or not info.global_mutables:
                continue
            local = _bound_names(fn)
            globals_declared: Set[str] = set()
            for node in iter_own_nodes(fn.node):
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            for node in iter_own_nodes(fn.node):
                name: Optional[str] = None
                if isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    if dotted is not None:
                        parts = dotted.split(".")
                        if len(parts) == 2 and parts[1] in _MUTATORS:
                            name = parts[0]
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Subscript) and isinstance(
                            target.value, ast.Name
                        ):
                            name = target.value.id
                        elif (
                            isinstance(target, ast.Name)
                            and target.id in globals_declared
                        ):
                            name = target.id
                if name is None:
                    continue
                if name not in info.global_mutables:
                    continue
                if name in local and name not in globals_declared:
                    continue  # shadowed by a local binding
                findings.append(
                    Finding(
                        path=info.path,
                        line=node.lineno,
                        col=getattr(node, "col_offset", 0),
                        code=self.code,
                        message=(
                            f"module-level mutable '{name}' (defined at line "
                            f"{info.global_mutables[name]}) is written in "
                            f"{qualname}, reachable from sweep entrypoint "
                            f"{cone[qualname]}; workers would diverge"
                        ),
                        severity=Severity.ERROR,
                    )
                )
        return findings


@register_rule
class NonPicklableIntoPool(ProgramRule):
    """PROC002: a lambda/closure is submitted to a process pool.

    A local name counts as a pool when an assignment or ``with`` binds it
    to a ``ProcessPoolExecutor(...)`` call, also as either arm of a
    conditional expression or an operand of ``and``/``or``
    (``pool = ProcessPoolExecutor() if workers > 1 else None``).  A pool
    passed in as a parameter or kept on an attribute is out of scope.
    """

    code = "PROC002"
    name = "non-picklable-into-pool"
    description = (
        "ProcessPoolExecutor pickles every submitted callable; lambdas and "
        "functions nested inside another function cannot be pickled and fail "
        "at runtime (or silently fall back). Define workers at module level."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for qualname in sorted(ctx.project.functions):
            fn = ctx.project.functions[qualname]
            info = ctx.project.modules.get(fn.module)
            if info is None:
                continue
            nested = {
                child.name
                for child in ctx.project.functions.values()
                if child.qualname == f"{qualname}.{child.name}"
            }
            executors: Set[str] = set()
            for node in iter_own_nodes(fn.node):
                value: Optional[ast.expr] = None
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None:
                            self._mark_executor(
                                info, item.context_expr, [item.optional_vars], executors
                            )
                    continue
                if value is not None:
                    self._mark_executor(info, value, targets, executors)
            if not executors:
                continue
            for node in iter_own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in _BOUNDARY_METHODS:
                    continue
                receiver = dotted_name(node.func.value)
                if receiver not in executors:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    label: Optional[str] = None
                    if isinstance(arg, ast.Lambda):
                        label = "a lambda"
                    elif isinstance(arg, ast.Name) and arg.id in nested:
                        label = f"nested function {arg.id}()"
                    if label is None:
                        continue
                    findings.append(
                        Finding(
                            path=info.path,
                            line=arg.lineno,
                            col=arg.col_offset,
                            code=self.code,
                            message=(
                                f"{label} is submitted to a ProcessPoolExecutor "
                                f"in {qualname}; it cannot be pickled — define "
                                f"the worker at module level"
                            ),
                            severity=Severity.ERROR,
                        )
                    )
        return findings

    @classmethod
    def _mark_executor(
        cls,
        info: ModuleInfo,
        value: ast.expr,
        targets: List[ast.expr],
        executors: Set[str],
    ) -> None:
        if isinstance(value, ast.IfExp):
            for arm in (value.body, value.orelse):
                cls._mark_executor(info, arm, targets, executors)
            return
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                cls._mark_executor(info, operand, targets, executors)
            return
        if not isinstance(value, ast.Call):
            return
        dotted = dotted_name(value.func)
        if dotted is None:
            return
        expanded = info.expand(dotted)
        if expanded.split(".")[-1] != _PROCESS_EXECUTOR:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                executors.add(target.id)


@register_rule
class ForkUnsafeLazySingleton(ProgramRule):
    """PROC003: a lazy module-level singleton is initialized in the worker cone."""

    code = "PROC003"
    name = "fork-unsafe-lazy-singleton"
    description = (
        "A 'global X; if X is None: X = ...' lazy initializer runs inside the "
        "sweep worker cone; whether the parent or each worker initializes it "
        "depends on call timing, so worker state diverges from serial runs."
    )

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        cone = _worker_cone(ctx)
        findings: List[Finding] = []
        for qualname in sorted(cone):
            fn = ctx.project.functions.get(qualname)
            if fn is None:
                continue
            info = ctx.project.modules.get(fn.module)
            if info is None:
                continue
            globals_declared: Set[str] = set()
            for node in iter_own_nodes(fn.node):
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            if not globals_declared:
                continue
            for node in iter_own_nodes(fn.node):
                if not isinstance(node, ast.If):
                    continue
                guarded = self._none_guarded_name(node.test)
                if guarded is None or guarded not in globals_declared:
                    continue
                assigns = any(
                    isinstance(child, ast.Assign)
                    and any(
                        isinstance(target, ast.Name) and target.id == guarded
                        for target in child.targets
                    )
                    for body_stmt in node.body
                    for child in ast.walk(body_stmt)
                )
                if not assigns:
                    continue
                findings.append(
                    Finding(
                        path=info.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code=self.code,
                        message=(
                            f"lazy singleton '{guarded}' is initialized on first "
                            f"use in {qualname}, reachable from sweep entrypoint "
                            f"{cone[qualname]}; initialize eagerly or derive "
                            f"per-cell state from the payload"
                        ),
                        severity=Severity.ERROR,
                    )
                )
        return findings

    @staticmethod
    def _none_guarded_name(test: ast.expr) -> Optional[str]:
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            if isinstance(test.ops[0], (ast.Is, ast.Eq)):
                left, right = test.left, test.comparators[0]
                if (
                    isinstance(left, ast.Name)
                    and isinstance(right, ast.Constant)
                    and right.value is None
                ):
                    return left.id
                if (
                    isinstance(right, ast.Name)
                    and isinstance(left, ast.Constant)
                    and left.value is None
                ):
                    return right.id
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            if isinstance(test.operand, ast.Name):
                return test.operand.id
        return None
