"""The one lint pass: parse once, run every rule, filter suppressions once."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Mapping, Optional

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import TaintAnalysis
from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.registry import ProgramContext, ProgramRule, Rule, all_rules
from repro.lint.suppressions import SuppressionIndex


def build_context(project: Project) -> ProgramContext:
    """Build the call graph and run taint analysis over a parsed project."""
    graph = CallGraph(project)
    taint = TaintAnalysis(project, graph)
    taint.run()
    return ProgramContext(project=project, graph=graph, taint=taint)


def lint_project(project: Project) -> List[Finding]:
    """Run every rule over a parsed project and return the unsuppressed findings.

    Per-file rules see each parsed file; whole-program rules see one
    :class:`ProgramContext`.  A finding reported twice (a whole-program rule
    reaching it via two call paths) is kept once.
    """
    rules = all_rules()
    file_rules = [rule for rule in rules if isinstance(rule, Rule)]
    program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
    raw: List[Finding] = list(project.parse_errors)
    for info in project.files:
        for file_rule in file_rules:
            if file_rule.applies_to(info.name):
                raw.extend(file_rule.check(info))
    ctx = build_context(project)
    for program_rule in program_rules:
        raw.extend(program_rule.check(ctx))
    suppressions = {info.path: info.suppressions for info in project.files}
    unsuppressed = SuppressionIndex()
    return [
        finding
        for finding in sorted(set(raw))
        if not suppressions.get(finding.path, unsuppressed).suppresses(finding)
    ]


def lint_paths(paths: Iterable[str], root: Optional[Path] = None) -> List[Finding]:
    """Lint files/directories; paths display relative to ``root`` (default cwd)."""
    if root is None:
        root = Path.cwd()
    return lint_project(Project.from_paths([Path(p) for p in paths], root=root))


def lint_sources(sources: Mapping[str, str]) -> List[Finding]:
    """Lint in-memory ``{module name: source}`` (the unit-test entry point)."""
    return lint_project(Project.from_sources(sources))
