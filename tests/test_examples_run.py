"""Walkthroughs, the README quickstart and the benches keep running.

``examples/`` is linted elsewhere; here each fast example runs end to end
in its own interpreter, and the README's first python block is executed as
written.  ``sweep_policies.py`` (~30 s) and ``ftl_trace_replay.py`` (writes
a trace file) are left to manual runs, but every ``from repro... import``
name in them, in the benches, the tools and the README/DESIGN python
blocks is resolved here without running the code.  Every ``benchmarks/bench_*.py`` must be
named by some CI step, or nothing runs it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_EXAMPLES = (
    "quickstart.py",
    "characterize_chips.py",
    "ondemand_assembly.py",
    "endurance_story.py",
)


def _run(args: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _consumer_sources() -> List[Tuple[str, str]]:
    """(label, code) for each bench, tool and example file and doc python block."""
    sources = [
        (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
        for folder in ("benchmarks", "tools", "examples")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    for doc in ("README.md", "DESIGN.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        sources.extend((f"{doc} block {i}", code) for i, code in enumerate(blocks))
    return sources


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name) or (
        importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_consumer_imports_resolve() -> None:
    # Code outside src imports each name from the package that exports it;
    # a name that leaves its package fails here, not in the first bench run.
    imports = [
        (label, node.module, alias.name)
        for label, code in _consumer_sources()
        for node in ast.walk(ast.parse(code, label))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]
    unresolved = [
        f"{label}: from {module} import {name}"
        for label, module, name in imports
        if not _resolves(module, name)
    ]
    assert imports and not unresolved, unresolved


def test_every_bench_runs_in_ci() -> None:
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    benches = sorted(path.name for path in (ROOT / "benchmarks").glob("bench_*.py"))
    missing = [name for name in benches if f"benchmarks/{name}" not in ci]
    assert benches and not missing, f"no CI step runs {missing}"


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_exits_zero(script: str) -> None:
    result = _run([str(ROOT / "examples" / script)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_quickstart_runs(capsys: pytest.CaptureFixture) -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README.md lost its python quickstart"
    code = block.group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_quickstart"})
    assert "% better" in capsys.readouterr().out


def test_import_repro_loads_no_submodule() -> None:
    # code outside src imports from the packages; the root stays empty
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    result = _run(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


#: Modules only commands load: the sweep runner, result cache and task
#: registry, the ``repro bench`` suite, the trace exporters and report, the
#: analysis renderers, and the standard-library modules behind them.
COMMAND_ONLY_MODULES = (
    "repro.exp.sweep",
    "repro.exp.cache",
    "repro.exp.tasks",
    "repro.perf.bench",
    "repro.perf.compare",
    "repro.perf.hotspots",
    "repro.perf.report",
    "repro.perf.schema",
    "repro.obs.artifacts",
    "repro.obs.export",
    "repro.obs.report",
    "repro.analysis.figures",
    "repro.analysis.sensitivity",
    "repro.analysis.tables",
    "concurrent.futures",
    "cProfile",
)


def test_building_a_stack_loads_no_command_module() -> None:
    # what builds and serves a stack, a fleet and the paper tables
    probe = (
        "import sys, repro.exp.build, repro.analysis.experiments, repro.fleet.tenants; "
        f"print(sorted(m for m in {COMMAND_ONLY_MODULES!r} if m in sys.modules))"
    )
    result = _run(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
