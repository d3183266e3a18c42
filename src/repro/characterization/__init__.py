"""Characterization harness: probe chips, define extra latency, analyze spread.

Software counterpart of the paper's real-platform methodology (Sections III
and VI-A): every number the assembly study consumes is *measured* through the
chip API by :class:`Prober`, never read from the generative model.
"""

from repro.characterization.datasets import BlockMeasurement
from repro.characterization.prober import Prober
from repro.characterization.statistics import (
    mean_lwl_curve,
    residual_trend_correlation,
    variability_report,
    wordline_trend_correlation,
)

__all__ = [
    "BlockMeasurement",
    "Prober",
    "variability_report",
    "wordline_trend_correlation",
    "residual_trend_correlation",
    "mean_lwl_curve",
]
