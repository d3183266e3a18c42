"""Walkthroughs, the README quickstart and the benches keep running.

``examples/`` is linted elsewhere; here each fast example runs end to end
in its own interpreter, and the README's first python block is executed as
written.  ``sweep_policies.py`` (~30 s) and ``ftl_trace_replay.py`` (writes
a trace file) are left to manual runs.  Every ``benchmarks/bench_*.py`` must
be named by some CI step, or nothing runs it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List

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
    assert "from repro.api import" in code
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_quickstart"})
    assert "% better" in capsys.readouterr().out


def test_import_repro_loads_no_submodule() -> None:
    # repro.api is the one facade; the package root must stay empty
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    result = _run(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
