"""cProfile deep mode: the top-N hot functions of one callable.

The scoped profiler answers "which layer costs what"; this module answers
"which exact functions" by running a callable under :mod:`cProfile` and
ranking by cumulative time.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple


@dataclass(frozen=True)
class HotFunction:
    """One row of the deep-profile ranking."""

    file: str
    line: int
    name: str
    calls: int
    total_s: float  # tottime: own time, callees excluded
    cumulative_s: float


def profile_callable(
    fn: Callable[[], object], top: int = 15
) -> Tuple[object, List[HotFunction]]:
    """Run ``fn`` under cProfile; return its result and the top-N ranking.

    Rows are ranked by cumulative time with profiler/builtin frames
    filtered out; ``top`` bounds the returned list, not the measurement.
    """
    profile = cProfile.Profile()
    result = profile.runcall(fn)
    stats = pstats.Stats(profile)
    rows: List[HotFunction] = []
    for (file, line, name), (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: -item[1][3],
    ):
        if file.startswith("<") or file in ("~",):
            continue  # builtins / profiler internals
        rows.append(
            HotFunction(
                file=file,
                line=line,
                name=name,
                calls=int(nc),
                total_s=float(tottime),
                cumulative_s=float(cumtime),
            )
        )
        if len(rows) >= top:
            break
    return result, rows


def render_hotspots(rows: List[HotFunction]) -> str:
    """The ``repro bench --hotspots`` table."""
    header = f"{'function':<44s} {'calls':>10s} {'own':>9s} {'cum':>9s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        location = f"{Path(row.file).name}:{row.line}:{row.name}"
        lines.append(
            f"{location:<44s} {row.calls:>10,d} "
            f"{row.total_s:>8.4f}s {row.cumulative_s:>8.4f}s"
        )
    return "\n".join(lines)
