"""Variability statistics over block measurements.

Backs the paper's Section III observations: process *variation* across chips
is much larger than across blocks of the same chip (the cited 6.69x
endurance-variability ratio from Pan et al.), while word-line latency trends
within a chip track each other closely (Figure 5, bottom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.characterization.datasets import BlockMeasurement


@dataclass(frozen=True)
class VariabilityReport:
    """Within-chip vs cross-chip spread of a per-block scalar metric."""

    metric: str
    within_chip_std: float
    cross_chip_std: float

    @property
    def cross_to_within_ratio(self) -> float:
        """>1 means chips differ more than blocks within a chip do."""
        if self.within_chip_std == 0:
            raise ZeroDivisionError("within-chip spread is zero")
        return self.cross_chip_std / self.within_chip_std


def _per_chip_values(
    measurements: Iterable[BlockMeasurement], metric: str
) -> Dict[int, np.ndarray]:
    values: Dict[int, List[float]] = {}
    for m in measurements:
        if metric == "erase":
            value = m.erase_latency_us
        elif metric == "program_total":
            value = m.program_total_us
        else:
            raise ValueError(f"unknown metric {metric!r}")
        values.setdefault(m.chip_id, []).append(value)
    return {chip: np.array(vals) for chip, vals in values.items()}


def variability_report(
    measurements: Iterable[BlockMeasurement], metric: str = "program_total"
) -> VariabilityReport:
    """Decompose spread of a block metric into within-chip and cross-chip parts.

    ``measurements`` are grouped by their ``chip_id`` (e.g. the blocks of
    every lane pool of one probed stack).

    within = RMS of per-chip standard deviations;
    cross  = standard deviation of per-chip means.
    """
    per_chip = _per_chip_values(measurements, metric)
    if len(per_chip) < 2:
        raise ValueError("need measurements from at least two chips")
    within = float(np.sqrt(np.mean([v.std() ** 2 for v in per_chip.values()])))
    cross = float(np.std([v.mean() for v in per_chip.values()]))
    return VariabilityReport(metric=metric, within_chip_std=within, cross_chip_std=cross)


def wordline_trend_correlation(a: BlockMeasurement, b: BlockMeasurement) -> float:
    """Pearson correlation of two blocks' per-LWL latency curves.

    Blocks on the same chip should correlate strongly (process similarity);
    blocks on different chips correlate mostly through the common layer
    shape and diverge in their chip profiles (Figure 5, bottom).
    """
    x = a.lwl_latencies()
    y = b.lwl_latencies()
    if x.shape != y.shape:
        raise ValueError("blocks disagree on word-line count")
    if x.std() == 0 or y.std() == 0:
        return 1.0 if np.allclose(x, y) else 0.0
    return float(np.corrcoef(x, y)[0, 1])


def residual_trend_correlation(
    a: BlockMeasurement, b: BlockMeasurement, common_shape: np.ndarray
) -> float:
    """Correlation after removing a common per-LWL shape.

    Removing the shared layer shape exposes the chip-specific profile: the
    discriminative part of Figure 5 (bottom).  ``common_shape`` is typically
    the mean per-LWL curve over many blocks/chips.
    """
    x = a.lwl_latencies() - common_shape
    y = b.lwl_latencies() - common_shape
    if x.std() == 0 or y.std() == 0:
        return 1.0 if np.allclose(x, y) else 0.0
    return float(np.corrcoef(x, y)[0, 1])


def mean_lwl_curve(measurements: Sequence[BlockMeasurement]) -> np.ndarray:
    """Average per-LWL latency curve over a set of blocks."""
    if not measurements:
        raise ValueError("no measurements")
    return np.mean([m.lwl_latencies() for m in measurements], axis=0)
