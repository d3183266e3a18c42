"""Superblock assembly: the eight organization directions of Section IV.

``repro.exp.make_assembler`` maps the paper's method names to these
classes, so benches and examples can spell out exactly the rows of Tables
I/II/V.
"""

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
]
