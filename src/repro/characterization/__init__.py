"""Characterization harness: probe chips, define extra latency, analyze spread.

Software counterpart of the paper's real-platform methodology (Sections III
and VI-A): every number the assembly study consumes is *measured* through the
chip API by :class:`Prober`, never read from the generative model.
"""

from repro.characterization.datasets import BlockMeasurement
from repro.characterization.extra_latency import (
    extra_erase_latency,
    extra_program_latency,
)
from repro.characterization.prober import Prober
from repro.characterization.statistics import (
    VariabilityReport,
    mean_lwl_curve,
    residual_trend_correlation,
    variability_report,
    wordline_trend_correlation,
)

__all__ = [
    "BlockMeasurement",
    "extra_program_latency",
    "extra_erase_latency",
    "Prober",
    "VariabilityReport",
    "variability_report",
    "wordline_trend_correlation",
    "residual_trend_correlation",
    "mean_lwl_curve",
]
