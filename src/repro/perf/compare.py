"""Baseline comparison: per-metric noise bands and a regression verdict.

``repro bench --compare BENCH_baseline.json`` runs the suite and calls
:func:`compare_docs`.  Every baseline metric carries its own
``tolerance_pct`` noise band (wall-clock numbers are far noisier than
layer shares); the CI gate multiplies all bands by a ``scale`` (hosted
runners differ from dev machines by integer factors) via
``--tolerance-scale`` / ``$REPRO_BENCH_TOLERANCE_SCALE``.

Verdict rules per metric (``worse_pct`` is how far *worse* current is):

* ``higher`` (throughput): worse when current < baseline;
* ``lower`` (wall-clock): worse when current > baseline;
* ``band`` (layer shares): the absolute drift in percentage points,
  either way;
* regression when ``worse_pct > tolerance_pct * scale`` (the boundary
  itself is within tolerance);
* a baseline metric missing from the current run, or a non-finite value
  on either side, is always a failure — silence must not pass the gate;
* metrics new in the current run are reported but never fail.

A ``schema_version`` mismatch on either side marks the comparison
``stale`` and fails it before any metric math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.perf.schema import SCHEMA_VERSION

#: per-metric verdicts, from best to worst.
OK = "ok"
IMPROVED = "improved"
NEW = "new"
REGRESSED = "regressed"
MISSING = "missing"
INVALID = "invalid"

_FAILING = frozenset({REGRESSED, MISSING, INVALID})


@dataclass(frozen=True)
class MetricComparison:
    """One metric's verdict against the baseline."""

    name: str
    status: str
    baseline: float = math.nan
    current: float = math.nan
    worse_pct: float = 0.0
    allowed_pct: float = 0.0
    direction: str = "higher"
    unit: str = ""

    @property
    def failed(self) -> bool:
        return self.status in _FAILING


@dataclass
class BenchComparison:
    """Whole-document comparison outcome."""

    metrics: List[MetricComparison] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    stale_schema: bool = False
    scale: float = 1.0

    @property
    def regressions(self) -> List[MetricComparison]:
        return [m for m in self.metrics if m.failed]

    @property
    def passed(self) -> bool:
        return not self.errors and not self.stale_schema and not self.regressions

    @property
    def cannot_fail(self) -> List[MetricComparison]:
        """Passing ``higher`` metrics whose band no drop can exceed.

        A higher-is-better value falls by at most 100% (to zero), so with
        a scaled band of 100% or more its check passes whatever it reads.
        A missing or non-finite value still fails, and is listed only as
        a regression.
        """
        return [
            m
            for m in self.metrics
            if not m.failed and m.direction == "higher" and m.allowed_pct >= 100.0
        ]


def _metric_value(entry: Any) -> float:
    if isinstance(entry, dict):
        value = entry.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return math.nan


def _worse_pct(direction: str, baseline: float, current: float) -> float:
    """How much worse (in %) ``current`` is than ``baseline``; <= 0 is better."""
    if direction == "band":
        # shares are absolute fractions; drift in percentage points
        return abs(current - baseline) * 100.0
    if baseline == 0:
        return math.inf if current != baseline else 0.0
    if direction == "higher":
        return (baseline - current) / abs(baseline) * 100.0
    return (current - baseline) / abs(baseline) * 100.0


def compare_docs(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    scale: float = 1.0,
) -> BenchComparison:
    """Compare a fresh bench document against a baseline one."""
    if scale <= 0:
        raise ValueError("tolerance scale must be positive")
    outcome = BenchComparison(scale=scale)

    for label, doc in (("current", current), ("baseline", baseline)):
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            outcome.stale_schema = True
            outcome.errors.append(
                f"{label} document has schema_version {version!r}, "
                f"this tool expects {SCHEMA_VERSION} — regenerate it with "
                "'repro bench'"
            )
    if outcome.stale_schema:
        return outcome

    if current.get("suite") != baseline.get("suite"):
        outcome.errors.append(
            f"suite mismatch: current ran {current.get('suite')!r} but the "
            f"baseline is {baseline.get('suite')!r}; rerun with the matching "
            "suite flag"
        )
        return outcome

    base_metrics = baseline.get("metrics") or {}
    cur_metrics = current.get("metrics") or {}

    for name in sorted(base_metrics):
        entry = base_metrics[name]
        direction = entry.get("direction", "higher") if isinstance(entry, dict) else "higher"
        unit = entry.get("unit", "") if isinstance(entry, dict) else ""
        tolerance = (
            entry.get("tolerance_pct", 0.0) if isinstance(entry, dict) else 0.0
        )
        allowed = float(tolerance) * scale
        base_value = _metric_value(entry)
        if name not in cur_metrics:
            outcome.metrics.append(
                MetricComparison(
                    name=name,
                    status=MISSING,
                    baseline=base_value,
                    direction=direction,
                    unit=unit,
                    allowed_pct=allowed,
                )
            )
            continue
        cur_value = _metric_value(cur_metrics[name])
        if not math.isfinite(base_value) or not math.isfinite(cur_value):
            outcome.metrics.append(
                MetricComparison(
                    name=name,
                    status=INVALID,
                    baseline=base_value,
                    current=cur_value,
                    direction=direction,
                    unit=unit,
                    allowed_pct=allowed,
                )
            )
            continue
        worse = _worse_pct(direction, base_value, cur_value)
        if worse > allowed:
            status = REGRESSED
        elif worse < 0:
            status = IMPROVED
        else:
            status = OK
        outcome.metrics.append(
            MetricComparison(
                name=name,
                status=status,
                baseline=base_value,
                current=cur_value,
                worse_pct=worse,
                allowed_pct=allowed,
                direction=direction,
                unit=unit,
            )
        )

    for name in sorted(set(cur_metrics) - set(base_metrics)):
        outcome.metrics.append(
            MetricComparison(
                name=name,
                status=NEW,
                current=_metric_value(cur_metrics[name]),
            )
        )
    return outcome


def render_comparison(outcome: BenchComparison) -> str:
    """The ``--compare`` verdict table."""
    lines: List[str] = []
    for error in outcome.errors:
        lines.append(f"ERROR: {error}")
    if outcome.errors:
        return "\n".join(lines)
    header = (
        f"{'metric':<34s} {'baseline':>12s} {'current':>12s} "
        f"{'worse':>8s} {'allowed':>8s}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for m in outcome.metrics:
        base = "-" if math.isnan(m.baseline) else f"{m.baseline:,.4g}"
        cur = "-" if math.isnan(m.current) else f"{m.current:,.4g}"
        if m.status in (MISSING, INVALID, NEW):
            worse = "-"
        else:
            worse = f"{m.worse_pct:+.1f}%"
        lines.append(
            f"{m.name:<34s} {base:>12s} {cur:>12s} "
            f"{worse:>8s} {m.allowed_pct:>7.1f}%  {m.status.upper()}"
        )
    failed = outcome.regressions
    lines.append("")
    if failed:
        names = ", ".join(m.name for m in failed)
        lines.append(
            f"REGRESSION: {len(failed)} metric(s) outside tolerance "
            f"(x{outcome.scale:g} scale): {names}"
        )
    else:
        lines.append(
            f"OK: all {len(outcome.metrics)} metric(s) within tolerance "
            f"(x{outcome.scale:g} scale)"
        )
    blind = outcome.cannot_fail
    if blind:
        lines.append(
            f"cannot fail: {len(blind)} higher-is-better metric(s) whose band is "
            "100% or wider, more than any drop can reach:"
        )
        lines.extend(f"  {m.name} (allowed {m.allowed_pct:.1f}%)" for m in blind)
    return "\n".join(lines)
