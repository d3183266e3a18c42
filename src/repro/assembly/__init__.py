"""Superblock assembly: the eight organization directions of Section IV.

The registry maps the paper's method names to constructors so benches and
examples can spell out exactly the rows of Tables I/II/V.
"""

from typing import Callable, Dict

from repro.assembly.base import (
    Assembler,
    LanePool,
    ScoredWindowAssembler,
    Superblock,
    WindowedAssembler,
    ZipAssembler,
    check_pools,
    min_total_distance_combo,
    pairwise_signature_distances,
)
from repro.assembly.evaluate import (
    MethodResult,
    collect_result,
    compare_methods,
    evaluate_assembler,
)
from repro.assembly.optimal import OptimalAssembler
from repro.assembly.pools import build_lane_pools
from repro.assembly.rank import (
    LwlRankAssembler,
    PwlRankAssembler,
    RankWindowAssembler,
    StrMedianAssembler,
    StrRankAssembler,
)
from repro.assembly.signatures import (
    SIGNATURE_BUILDERS,
    lwl_rank_signature,
    pwl_rank_signature,
    signature_distance,
    str_median_signature,
    str_rank_signature,
)
from repro.assembly.simple import (
    ErsLatencyAssembler,
    PgmLatencyAssembler,
    RandomAssembler,
    SequentialAssembler,
)

#: Constructors for every direction, keyed by the paper's method names.
METHOD_REGISTRY: Dict[str, Callable[[], Assembler]] = {
    "RANDOM": lambda: RandomAssembler(),
    "SEQUENTIAL": lambda: SequentialAssembler(),
    "ERS-LTN": lambda: ErsLatencyAssembler(),
    "PGM-LTN": lambda: PgmLatencyAssembler(),
    "OPTIMAL(8)": lambda: OptimalAssembler(8),
    "LWL-RANK(8)": lambda: LwlRankAssembler(8),
    "PWL-RANK(8)": lambda: PwlRankAssembler(8),
    "STR-RANK(8)": lambda: StrRankAssembler(8),
    "STR-MED(4)": lambda: StrMedianAssembler(4),
}

__all__ = [
    "Assembler",
    "ZipAssembler",
    "WindowedAssembler",
    "ScoredWindowAssembler",
    "LanePool",
    "Superblock",
    "check_pools",
    "pairwise_signature_distances",
    "min_total_distance_combo",
    "MethodResult",
    "evaluate_assembler",
    "collect_result",
    "compare_methods",
    "OptimalAssembler",
    "build_lane_pools",
    "RankWindowAssembler",
    "LwlRankAssembler",
    "PwlRankAssembler",
    "StrRankAssembler",
    "StrMedianAssembler",
    "SIGNATURE_BUILDERS",
    "lwl_rank_signature",
    "pwl_rank_signature",
    "str_rank_signature",
    "str_median_signature",
    "signature_distance",
    "RandomAssembler",
    "SequentialAssembler",
    "ErsLatencyAssembler",
    "PgmLatencyAssembler",
    "METHOD_REGISTRY",
]
