"""The live repository must be reprolint-clean under all 20 rules.

This is the PR gate in miniature: if a change reintroduces an unseeded RNG,
a wall-clock read or value flowing into state, a layering inversion, a
process-safety slip, or a unit-hygiene slip anywhere in
``src``/``benchmarks``/``examples``/``tools``, this test fails with the same
report ``repro lint`` prints.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

from repro.lint import lint_paths, render_text
from repro.lint.layers import LAYER_DEPENDENCIES
from repro.lint.project import iter_python_files
from repro.lint.suppressions import directive_lines

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTED_DIRS = ["src", "benchmarks", "examples", "tools"]


def _existing_dirs() -> List[str]:
    return [str(REPO_ROOT / d) for d in LINTED_DIRS if (REPO_ROOT / d).is_dir()]


def test_repository_is_lint_clean() -> None:
    findings = lint_paths(_existing_dirs(), root=REPO_ROOT)
    assert not findings, "\n" + render_text(findings)


def test_linted_tree_is_nonempty() -> None:
    # Guard against the self-check silently passing because discovery broke.
    files = list(iter_python_files([Path(d) for d in _existing_dirs()]))
    assert len(files) > 100
    names = {f.name for f in files}
    assert "ftl.py" in names and "chip.py" in names


def test_every_suppression_carries_an_explanation() -> None:
    """A bare directive with no nearby comment is an unreviewed exemption."""
    for path in iter_python_files([Path(d) for d in _existing_dirs()]):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno in directive_lines(source):
            window = lines[max(0, lineno - 3) : lineno]
            has_prose = any(
                "#" in line and "reprolint:" not in line.split("#", 1)[1]
                for line in window
            )
            assert has_prose, (
                f"{path}:{lineno}: reprolint directive without an explanatory "
                "comment on the same or preceding lines"
            )


def test_layer_map_is_acyclic() -> None:
    """The declarative map itself must stay a DAG."""
    state = {}

    def visit(layer: str) -> None:
        state[layer] = "visiting"
        for dep in sorted(LAYER_DEPENDENCIES[layer]):
            if state.get(dep) == "visiting":
                raise AssertionError(f"cycle through {layer} -> {dep}")
            if dep not in state:
                visit(dep)
        state[layer] = "done"

    for layer in sorted(LAYER_DEPENDENCIES):
        if layer not in state:
            visit(layer)


def test_mypy_gate_passes() -> None:
    """The committed strict-leaning mypy config must hold (when available)."""
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_layer_map_matches_reality() -> None:
    """Every subpackage present in src/repro appears in the layer map."""
    src = REPO_ROOT / "src" / "repro"
    subpackages = {
        p.name
        for p in src.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    assert subpackages == set(LAYER_DEPENDENCIES)
