"""Experiment drivers for every table and figure of the paper.

Each function builds exactly the data one table/figure reports, using the
same synthetic testbed (four chips, 400-block pools per chip by default —
the per-P/E-cycle superblock budget of Section IV-A).  The benchmark
harness and the examples call these; EXPERIMENTS.md records the outputs
next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.assembly import (
    LanePool,
    MethodResult,
    OptimalAssembler,
    RandomAssembler,
    StrMedianAssembler,
    build_lane_pools,
    evaluate_assembler,
)
from repro.characterization.prober import Prober
from repro.core import QstrMedAssembler
from repro.exp import MethodEvaluator, MethodRow
from repro.nand import FlashChip
from repro.utils.stats import Histogram

DEFAULT_SEED = 2024
DEFAULT_CHIPS = 4
DEFAULT_POOL_BLOCKS = 400


# ---------------------------------------------------------------------------
# Tables I, II, V
# ---------------------------------------------------------------------------


TABLE1_METHODS = (
    "SEQUENTIAL",
    "ERS-LTN",
    "PGM-LTN",
    "OPTIMAL(8)",
    "LWL-RANK(8)",
    "PWL-RANK(8)",
    "STR-RANK(8)",
    "STR-MED(4)",
)


def run_methods(
    pools: Sequence[LanePool], names: Sequence[str], seed: int = 1
) -> Tuple[MethodResult, Dict[str, MethodRow]]:
    """Evaluate methods against the random baseline on identical pools."""
    evaluator = MethodEvaluator(pools, seed=seed)
    return evaluator.result("RANDOM"), evaluator.rows(names)


def table1_eight_directions(pools: Sequence[LanePool]) -> Tuple[MethodResult, Dict[str, MethodRow]]:
    """Table I: the eight directions' program-latency reduction."""
    return run_methods(pools, TABLE1_METHODS)


def table2_window_sweep(
    pools: Sequence[LanePool], windows: Sequence[int] = (8, 6, 4, 2)
) -> Tuple[MethodResult, Dict[str, MethodRow]]:
    """Table II: STR-RANK under different window sizes."""
    names = [f"STR-RANK({w})" for w in windows]
    return run_methods(pools, names)


TABLE5_METHODS = ("SEQUENTIAL", "OPTIMAL(8)", "QSTR-MED(4)", "STR-MED(4)")


def table5_extra_latency(pools: Sequence[LanePool]) -> Tuple[MethodResult, Dict[str, MethodRow]]:
    """Table V: extra program/erase latency of the headline methods."""
    return run_methods(pools, TABLE5_METHODS)


# ---------------------------------------------------------------------------
# Figure 5 — characterization series
# ---------------------------------------------------------------------------


@dataclass
class CharacterizationSeries:
    """The raw series Figure 5 plots."""

    # (chip_id, plane) -> [(block, tBERS)]
    erase_by_chip_plane: Dict[Tuple[int, int], List[Tuple[int, float]]]
    # (chip_id, block) -> per-LWL tPROG curve
    program_curves: Dict[Tuple[int, int], np.ndarray]


def fig5_characterization(
    chips: Sequence[FlashChip],
    erase_blocks: int = 400,
    curve_blocks: Sequence[int] = (0, 1, 2, 3),
) -> CharacterizationSeries:
    """Collect Figure 5's data: tBERS per block (top), tPROG per WL (bottom)."""
    erase_series: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    program_curves: Dict[Tuple[int, int], np.ndarray] = {}
    for chip in chips:
        prober = Prober(chip)
        for plane in range(chip.geometry.planes_per_chip):
            series: List[Tuple[int, float]] = []
            for block in range(erase_blocks):
                measurement = prober.try_probe_block(plane, block)
                if measurement is None:
                    continue
                series.append((block, measurement.erase_latency_us))
                if plane == 0 and block in curve_blocks:
                    program_curves[(chip.chip_id, block)] = measurement.lwl_latencies()
            erase_series[(chip.chip_id, plane)] = series
    return CharacterizationSeries(
        erase_by_chip_plane=erase_series, program_curves=program_curves
    )


# ---------------------------------------------------------------------------
# Figure 6 — extra latency of random superblocks
# ---------------------------------------------------------------------------


@dataclass
class RandomExtraSeries:
    """Per-superblock extra latencies under random assembly (Figure 6)."""

    extra_program_us: List[float]
    extra_erase_us: List[float]

    @property
    def mean_program(self) -> float:
        return float(np.mean(self.extra_program_us))

    @property
    def mean_erase(self) -> float:
        return float(np.mean(self.extra_erase_us))


def fig6_random_extra(pools: Sequence[LanePool], seed: int = 1) -> RandomExtraSeries:
    result = evaluate_assembler(RandomAssembler(seed=seed), pools)
    return RandomExtraSeries(
        extra_program_us=result.extra_program_us,
        extra_erase_us=result.extra_erase_us,
    )


# ---------------------------------------------------------------------------
# Figure 13 — extra-latency distributions
# ---------------------------------------------------------------------------


def fig13_distributions(
    rows: Dict[str, MethodRow],
    baseline: MethodResult,
    bins: int = 30,
) -> Dict[str, Histogram]:
    """Histogram of per-superblock extra program latency per method."""
    all_values: List[float] = list(baseline.extra_program_us)
    for row in rows.values():
        all_values.extend(row.result.extra_program_us)
    low = min(all_values)
    high = max(all_values) * 1.0001
    histograms: Dict[str, Histogram] = {}
    baseline_hist = Histogram(low=low, high=high, bins=bins)
    baseline_hist.extend(baseline.extra_program_us)
    histograms["RANDOM"] = baseline_hist
    for name, row in rows.items():
        hist = Histogram(low=low, high=high, bins=bins)
        hist.extend(row.result.extra_program_us)
        histograms[name] = hist
    return histograms


# ---------------------------------------------------------------------------
# Figure 14 — per-superblock improvement, STR-MED vs QSTR-MED
# ---------------------------------------------------------------------------


@dataclass
class PerSuperblockSeries:
    """Per-superblock extra program latency for two practical schemes."""

    str_med: List[float]
    qstr_med: List[float]
    random: List[float]


def fig14_per_superblock(pools: Sequence[LanePool], seed: int = 1) -> PerSuperblockSeries:
    random_result = evaluate_assembler(RandomAssembler(seed=seed), pools)
    str_result = evaluate_assembler(StrMedianAssembler(4), pools)
    qstr_result = evaluate_assembler(QstrMedAssembler(4), pools)
    return PerSuperblockSeries(
        str_med=str_result.extra_program_us,
        qstr_med=qstr_result.extra_program_us,
        random=random_result.extra_program_us,
    )


# ---------------------------------------------------------------------------
# Figure 15 — P/E cycle sensitivity
# ---------------------------------------------------------------------------


@dataclass
class PeSweepPoint:
    """Method outcomes at one P/E epoch."""

    pe: int
    random: MethodResult
    qstr_med: MethodResult
    str_med: MethodResult
    optimal: Optional[MethodResult] = None


def fig15_pe_sweep(
    chips: Sequence[FlashChip],
    pe_points: Sequence[int] = tuple(range(0, 3001, 200)),
    pool_blocks: int = DEFAULT_POOL_BLOCKS,
    include_optimal: bool = False,
    seed: int = 1,
) -> List[PeSweepPoint]:
    """Re-probe and re-assemble at increasing wear (Figure 15 / Fig 6 inset).

    The same physical blocks are stress-cycled to each epoch and re-measured,
    exactly like the paper's chamber runs.
    """
    points: List[PeSweepPoint] = []
    for pe in sorted(pe_points):
        pools = build_lane_pools(chips, range(pool_blocks), target_pe=pe)
        random_result = evaluate_assembler(RandomAssembler(seed=seed), pools)
        qstr_result = evaluate_assembler(QstrMedAssembler(4), pools)
        str_result = evaluate_assembler(StrMedianAssembler(4), pools)
        optimal_result = (
            evaluate_assembler(OptimalAssembler(8), pools) if include_optimal else None
        )
        points.append(
            PeSweepPoint(
                pe=pe,
                random=random_result,
                qstr_med=qstr_result,
                str_med=str_result,
                optimal=optimal_result,
            )
        )
    return points
