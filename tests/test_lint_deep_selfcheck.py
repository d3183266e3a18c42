"""The live repository must be deep-lint clean modulo the committed baseline.

This mirrors the CI ``deep-lint`` job: the whole-program passes must report
nothing new, and the baseline must stay small and justified.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    MAX_BASELINE_ENTRIES,
    Baseline,
    fingerprint,
)
from repro.lint.deep import run_deep
from repro.lint.findings import Finding
from repro.lint.report import render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTED_DIRS = ["src", "benchmarks", "examples", "tools"]


def _existing_dirs() -> List[Path]:
    return [REPO_ROOT / d for d in LINTED_DIRS if (REPO_ROOT / d).is_dir()]


def _deep_findings() -> List[Finding]:
    return run_deep(_existing_dirs(), root=REPO_ROOT)


def test_repository_is_deep_lint_clean_modulo_baseline() -> None:
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    fresh, _ = baseline.split(_deep_findings())
    assert not fresh, "\n" + render_text(fresh)


def test_baseline_is_small_and_justified() -> None:
    path = REPO_ROOT / DEFAULT_BASELINE
    baseline = Baseline.load(path)
    assert len(baseline) <= MAX_BASELINE_ENTRIES
    for key, entry in baseline.entries.items():
        justification = entry.get("justification", "")
        assert justification and "TODO" not in justification, (
            f"baseline entry {key} ({entry.get('code')}) lacks a real "
            f"justification"
        )


def test_baseline_entries_are_not_stale() -> None:
    """Every grandfathered fingerprint must still match a live finding."""
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    live = {fingerprint(finding) for finding in _deep_findings()}
    stale = sorted(set(baseline.entries) - live)
    assert not stale, f"baseline entries no longer fired by --deep: {stale}"


def test_deep_pass_runs_fresh_each_time() -> None:
    """Two runs over the same tree agree exactly (determinism of the linter)."""
    first = _deep_findings()
    second = _deep_findings()
    assert first == second
