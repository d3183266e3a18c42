"""Superblock assembly: the eight organization directions of Section IV.

``repro.exp.make_assembler`` maps the paper's method names to these
classes, so benches and examples can spell out exactly the rows of Tables
I/II/V.
"""

from repro.assembly.base import Assembler, LanePool, Superblock, WindowedAssembler
from repro.assembly.evaluate import MethodResult, collect_result, evaluate_assembler
from repro.assembly.optimal import OptimalAssembler
from repro.assembly.pools import build_lane_pools
from repro.assembly.rank import (
    LwlRankAssembler,
    PwlRankAssembler,
    StrMedianAssembler,
    StrRankAssembler,
)
from repro.assembly.simple import (
    ErsLatencyAssembler,
    PgmLatencyAssembler,
    RandomAssembler,
    SequentialAssembler,
)

__all__ = [
    "Assembler",
    "WindowedAssembler",
    "LanePool",
    "Superblock",
    "MethodResult",
    "evaluate_assembler",
    "collect_result",
    "OptimalAssembler",
    "build_lane_pools",
    "LwlRankAssembler",
    "PwlRankAssembler",
    "StrRankAssembler",
    "StrMedianAssembler",
    "RandomAssembler",
    "SequentialAssembler",
    "ErsLatencyAssembler",
    "PgmLatencyAssembler",
]
