"""Figure series and terminal rendering.

Each ``figNN_*`` helper in :mod:`repro.analysis.experiments` produces raw
series; this module turns them into the rows/points the paper's figures plot
and renders quick ASCII views so benches show the *shape* without a plotting
dependency.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.utils.stats import Histogram

SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Coarse one-line chart of a series."""
    if not len(values):
        return ""
    array = np.asarray(values, dtype=float)
    if len(array) > width:
        # bucket-average down to `width` points
        edges = np.linspace(0, len(array), width + 1).astype(int)
        array = np.array(
            [array[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a]
        )
    low, high = float(array.min()), float(array.max())
    if high == low:
        return SPARK_CHARS[len(SPARK_CHARS) // 2] * len(array)
    scaled = (array - low) / (high - low) * (len(SPARK_CHARS) - 1)
    return "".join(SPARK_CHARS[int(round(v))] for v in scaled)


def render_series_block(
    title: str, series: Dict[str, Sequence[float]], width: int = 60
) -> str:
    """A labelled stack of sparklines with min/mean/max annotations."""
    lines = [title]
    label_width = max((len(name) for name in series), default=0)
    for name, values in series.items():
        array = np.asarray(values, dtype=float)
        if array.size == 0:
            lines.append(f"  {name.ljust(label_width)}  (empty)")
            continue
        lines.append(
            f"  {name.ljust(label_width)}  {sparkline(array, width)}  "
            f"[min {array.min():,.1f}  mean {array.mean():,.1f}  max {array.max():,.1f}]"
        )
    return "\n".join(lines)


def render_histogram(title: str, histogram: Histogram, width: int = 50) -> str:
    """Horizontal-bar ASCII histogram."""
    lines = [title]
    peak = max(histogram.counts) if any(histogram.counts) else 1
    for center, count in histogram.series():
        bar = "#" * int(round(count / peak * width))
        lines.append(f"  {center:>12,.1f} | {bar} {count}")
    return "\n".join(lines)


def cumulative_mean(values: Sequence[float]) -> np.ndarray:
    """Running mean — the smoothed trend line Figure 14 effectively shows."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return array
    return np.cumsum(array) / (np.arange(array.size) + 1)


def improvement_series(
    baseline: Sequence[float], method: Sequence[float]
) -> np.ndarray:
    """Per-superblock improvement % of a method over the baseline."""
    base = np.asarray(baseline, dtype=float)
    other = np.asarray(method, dtype=float)
    if base.shape != other.shape:
        raise ValueError("series must align")
    with np.errstate(divide="ignore", invalid="ignore"):
        result = (base - other) / base * 100.0
    return np.nan_to_num(result, nan=0.0, posinf=0.0, neginf=0.0)
