"""Deep (whole-program) rule framework.

Shallow rules (PR 1) see one file's AST; deep rules see the whole program:
a :class:`~repro.lint.project.Project` symbol table, the
:class:`~repro.lint.callgraph.CallGraph` over it, and the
:class:`~repro.lint.dataflow.TaintAnalysis` results.  ``run_deep`` builds
those once, runs every registered deep rule, dedupes findings reported via
two call-graph paths, and honors suppressions with **function scope**: a
``# reprolint: disable=CODE`` on a ``def`` or decorator line silences that
code for the whole function body (deep findings anchor on arbitrary
statements inside a function, so line-matching alone could never reach
them).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import TaintAnalysis
from repro.lint.findings import Finding, Severity
from repro.lint.project import Project


@dataclass
class DeepContext:
    """Everything a deep rule sees: the program, its graph, its taint."""

    project: Project
    graph: CallGraph
    taint: TaintAnalysis

    def finding(
        self,
        path: str,
        line: int,
        col: int,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            path=path, line=line, col=col, code=code, message=message, severity=severity
        )


class DeepRule:
    """Base class for whole-program rules."""

    code: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: DeepContext) -> Iterable[Finding]:
        raise NotImplementedError


_DEEP_REGISTRY: Dict[str, DeepRule] = {}


def register_deep_rule(cls: type) -> type:
    instance = cls()
    if not instance.code:
        raise ValueError(f"deep rule {cls.__name__} has no code")
    if instance.code in _DEEP_REGISTRY:
        raise ValueError(f"duplicate deep rule code {instance.code}")
    _DEEP_REGISTRY[instance.code] = instance
    return cls


def all_deep_rules() -> List[DeepRule]:
    _ensure_rules_loaded()
    return [_DEEP_REGISTRY[code] for code in sorted(_DEEP_REGISTRY)]


def get_deep_rule(code: str) -> DeepRule:
    _ensure_rules_loaded()
    return _DEEP_REGISTRY[code]


def deep_codes() -> List[str]:
    _ensure_rules_loaded()
    return sorted(_DEEP_REGISTRY)


def _ensure_rules_loaded() -> None:
    # The deep rule modules self-register on import, exactly like the
    # shallow ones in repro.lint.rules.__init__.
    import repro.lint.rules.deep_det  # noqa: F401
    import repro.lint.rules.deep_proc  # noqa: F401
    import repro.lint.rules.deep_rng  # noqa: F401


def build_context(project: Project) -> DeepContext:
    """Build the call graph and run taint analysis over a parsed project."""
    graph = CallGraph(project)
    taint = TaintAnalysis(project, graph)
    taint.run()
    return DeepContext(project=project, graph=graph, taint=taint)


def run_deep(
    paths: Optional[Sequence[Path]] = None,
    root: Optional[Path] = None,
    rules: Optional[Sequence[DeepRule]] = None,
    project: Optional[Project] = None,
) -> List[Finding]:
    """Run every deep rule over the program and return filtered findings."""
    if project is None:
        if paths is None:
            raise ValueError("run_deep needs paths or a pre-built project")
        project = Project.from_paths(list(paths), root=root)
    ctx = build_context(project)
    active = list(rules) if rules is not None else all_deep_rules()
    raw: List[Finding] = []
    for rule in active:
        raw.extend(rule.check(ctx))
    # Dedupe identical findings reported via two call-graph paths.
    unique = sorted(set(raw))
    filtered: List[Finding] = []
    for finding in unique:
        info = project.module_for_path(finding.path)
        if info is not None and info.suppressions.suppresses(
            finding, function_scope=True
        ):
            continue
        filtered.append(finding)
    return filtered


def run_deep_sources(
    sources: Dict[str, str], rules: Optional[Sequence[DeepRule]] = None
) -> List[Finding]:
    """Deep-lint in-memory sources (the unit-test entry point)."""
    return run_deep(project=Project.from_sources(sources), rules=rules)
