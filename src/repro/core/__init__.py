"""The paper's contribution: the QSTR-MED process-variation check scheme.

Components (Figure 8): runtime similarity gathering (`gathering`), per-chip
sorted catalogs (`catalog`), on-demand reference-anchored assembly
(`assembler`), function-based placement (`placement`), plus the eigen
sequence primitives (`eigen`), metadata records (`records`) and overhead
accounting (`overhead`).  `scheme` ties them together.
"""

from repro.core.assembler import (
    AssemblyError,
    OnDemandAssembler,
    SpeedClass,
    SuperblockChoice,
)
from repro.core.catalog import BlockCatalog, CatalogError
from repro.core.eigen import (
    eigen_bits_for_geometry,
    eigen_distance,
    eigen_sequence,
    layer_eigen_bits,
)
from repro.core.gathering import GatheringError, GatheringUnit
from repro.core.overhead import (
    FootprintModel,
    lane_pairs,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.core.placement import (
    WriteIntent,
    WriteSource,
    prefers_fast_superpage,
    speed_class_for,
)
from repro.core.records import PGM_LATENCY_BYTES, BlockRecord
from repro.core.superpage import SuperpagePredictor
from repro.core.scheme import QstrMedAssembler, QstrMedScheme

__all__ = [
    "SpeedClass",
    "SuperblockChoice",
    "OnDemandAssembler",
    "AssemblyError",
    "BlockCatalog",
    "CatalogError",
    "eigen_sequence",
    "layer_eigen_bits",
    "eigen_distance",
    "eigen_bits_for_geometry",
    "GatheringUnit",
    "GatheringError",
    "FootprintModel",
    "lane_pairs",
    "str_med_pair_checks",
    "qstr_med_pair_checks",
    "overhead_reduction_pct",
    "WriteIntent",
    "WriteSource",
    "speed_class_for",
    "prefers_fast_superpage",
    "BlockRecord",
    "PGM_LATENCY_BYTES",
    "SuperpagePredictor",
    "QstrMedScheme",
    "QstrMedAssembler",
]
