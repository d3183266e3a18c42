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

Run it with ``repro lint`` (or ``python -m repro lint``).  One pass parses
every file once and runs all 20 rules from one registry: the per-file rules
above, then the whole-program rules over the call graph and taint analysis
(RNG stream flow, nondeterminism taint, process safety — see DESIGN.md
§10).  Suppress a single finding with ``# reprolint: disable=CODE`` on the
flagged line, or a whole file with ``# reprolint: disable-file=CODE`` —
always with a comment saying why the exemption is sound.
"""

from __future__ import annotations

from repro.lint.engine import lint_paths, lint_sources
from repro.lint.findings import Finding
from repro.lint.registry import ProgramRule, all_rules, get_rule
from repro.lint.report import render_json, render_text

__all__ = [
    "Finding",
    "ProgramRule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
]
