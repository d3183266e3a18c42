"""Evaluation harness for assembly methods (Tables I, II and V).

Runs an assembler over lane pools and aggregates the two metrics the paper
reports per superblock: extra program latency (summed over super word-lines)
and extra erase latency, plus the improvement percentage against a baseline
(always the random assembly in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.assembly.base import CHUNK_BYTES, Assembler, LanePool, Superblock
from repro.characterization.extra_latency import (
    extra_erase_latencies,
    extra_program_latencies,
)
from repro.utils.stats import RunningStats
from repro.utils.units import improvement_pct


@dataclass
class MethodResult:
    """Aggregated extra-latency outcome of one assembly method."""

    name: str
    extra_program_us: List[float] = field(default_factory=list)
    extra_erase_us: List[float] = field(default_factory=list)
    combinations_checked: int = 0
    pair_checks: int = 0

    @property
    def superblock_count(self) -> int:
        return len(self.extra_program_us)

    @property
    def mean_extra_program_us(self) -> float:
        stats = RunningStats()
        stats.extend(self.extra_program_us)
        return stats.mean

    @property
    def mean_extra_erase_us(self) -> float:
        stats = RunningStats()
        stats.extend(self.extra_erase_us)
        return stats.mean

    def program_improvement_vs(self, baseline: "MethodResult") -> float:
        """Table I's "Imp. %": reduction of mean extra program latency."""
        return improvement_pct(
            baseline.mean_extra_program_us, self.mean_extra_program_us
        )

    def erase_improvement_vs(self, baseline: "MethodResult") -> float:
        return improvement_pct(baseline.mean_extra_erase_us, self.mean_extra_erase_us)

    def program_reduction_vs(self, baseline: "MethodResult") -> float:
        """Absolute reduction in µs — Table I's "PGM LTN ↓ (Avg.)" column."""
        return baseline.mean_extra_program_us - self.mean_extra_program_us


def evaluate_assembler(assembler: Assembler, pools: Sequence[LanePool]) -> MethodResult:
    """Assemble all superblocks and collect their extra latencies."""
    superblocks = assembler.assemble(pools)
    return collect_result(assembler.name, superblocks, assembler)


def collect_result(
    name: str,
    superblocks: Sequence[Superblock],
    assembler: Optional[Assembler] = None,
) -> MethodResult:
    """Extra latencies of ``superblocks`` (and the assembler's counters).

    Extra program latency is computed for a chunk of superblocks at a time
    from one ``(chunk, lanes, lwls)`` stack, each within ``CHUNK_BYTES``,
    and extra erase latency for all of them from one ``(superblocks,
    lanes)`` array; every superblock's values equal its
    ``extra_program_latency_us`` and ``extra_erase_latency_us``.
    """
    result = MethodResult(name=name)
    if superblocks:
        first = superblocks[0].members
        per_superblock = 8 * len(first) * first[0].wl_latencies_us.size
        step = max(1, CHUNK_BYTES // per_superblock)
        for start in range(0, len(superblocks), step):
            chunk = superblocks[start : start + step]
            result.extra_program_us.extend(
                extra_program_latencies([sb.members for sb in chunk])
            )
    result.extra_erase_us = extra_erase_latencies([sb.members for sb in superblocks])
    if assembler is not None:
        result.combinations_checked = getattr(assembler, "combinations_checked", 0)
        result.pair_checks = getattr(assembler, "pair_checks", 0)
    return result
