"""The paper's contribution: the QSTR-MED process-variation check scheme.

Components (Figure 8): runtime similarity gathering (`gathering`), per-chip
sorted catalogs (`catalog`), on-demand reference-anchored assembly
(`assembler`), function-based placement (`placement`), plus the eigen
sequence primitives (`eigen`), metadata records (`records`) and overhead
accounting (`overhead`).  `scheme` ties them together.
"""

from repro.core.assembler import SpeedClass
from repro.core.eigen import eigen_sequence
from repro.core.gathering import GatheringUnit
from repro.core.overhead import (
    FootprintModel,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.core.placement import WriteIntent, WriteSource
from repro.core.scheme import QstrMedAssembler, QstrMedScheme

__all__ = [
    "SpeedClass",
    "eigen_sequence",
    "GatheringUnit",
    "FootprintModel",
    "str_med_pair_checks",
    "qstr_med_pair_checks",
    "overhead_reduction_pct",
    "WriteIntent",
    "WriteSource",
    "QstrMedScheme",
    "QstrMedAssembler",
]
