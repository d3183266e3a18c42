"""`reprolint`: AST-based simulation-invariant checks for this repository.

The value of this reproduction rests on bit-for-bit deterministic latency
modeling.  These checks turn the conventions that keep the simulation honest
into machine-checked invariants:

* **RNG discipline** — every stochastic draw flows through
  :func:`repro.utils.rng.derive_seed`;
* **determinism** — no wall-clock reads or unordered-set iteration in the
  simulator's hot paths;
* **layering** — the ``utils → nand → {characterization, assembly, core} →
  ftl → ssd → {workloads, analysis, cli}`` import DAG never inverts;
* **numeric hygiene** — no float-literal equality, no mutable default args.

Run it with ``repro lint`` (or ``python -m repro lint``); add ``--deep`` for
the whole-program passes (call graph + taint: RNG stream flow, nondeterminism
taint, process safety — see DESIGN.md §10).  Suppress a single finding with
``# reprolint: disable=CODE`` on the flagged line (on a ``def``/decorator
line this covers the whole function body for deep findings), or a whole file
with ``# reprolint: disable-file=CODE`` — always with a comment saying why
the exemption is sound.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline, fingerprint
from repro.lint.callgraph import CallEdge, CallGraph
from repro.lint.dataflow import SinkHit, TaintAnalysis
from repro.lint.deep import (
    DeepContext,
    DeepRule,
    all_deep_rules,
    deep_codes,
    register_deep_rule,
    run_deep,
    run_deep_sources,
)
from repro.lint.engine import LintRunner, lint_paths, lint_source
from repro.lint.findings import Finding, Severity
from repro.lint.project import Project
from repro.lint.registry import Rule, RuleContext, all_rules, get_rule, register_rule
from repro.lint.report import render_json, render_text

__all__ = [
    "Baseline",
    "CallEdge",
    "CallGraph",
    "DeepContext",
    "DeepRule",
    "Finding",
    "LintRunner",
    "Project",
    "Rule",
    "RuleContext",
    "Severity",
    "SinkHit",
    "TaintAnalysis",
    "all_deep_rules",
    "all_rules",
    "deep_codes",
    "fingerprint",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_deep_rule",
    "register_rule",
    "render_json",
    "render_text",
    "run_deep",
    "run_deep_sources",
]
