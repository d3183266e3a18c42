"""Experiment drivers for every table and figure of the paper.

Each function builds exactly the data one table/figure reports from the one
construction path: a :class:`~repro.exp.SimConfig` testbed (four chips,
400-block pools per chip by default — the per-P/E-cycle superblock budget
of Section IV-A) built by :func:`~repro.exp.build_stack`, its pools
evaluated by one :class:`~repro.exp.MethodEvaluator`.  Figure 15 is the
``methods`` sweep task over ``pe_cycles``.  The CLI, the benches and the
report generator call these; EXPERIMENTS.md records the outputs next to the
paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.assembly import LanePool, MethodResult, build_lane_pools
from repro.exp import (
    DEFAULT_METHODS,
    MethodEvaluator,
    MethodRow,
    SimConfig,
    build_stack,
)
from repro.utils.stats import Histogram


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

TABLE2_METHODS = ("STR-RANK(8)", "STR-RANK(6)", "STR-RANK(4)", "STR-RANK(2)")

#: Table V's rows, which the ``methods`` sweep task also evaluates by default.
TABLE5_METHODS = DEFAULT_METHODS


def run_methods(
    pools: Sequence[LanePool], names: Sequence[str], seed: int = 1
) -> Tuple[MethodResult, Dict[str, MethodRow]]:
    """Evaluate methods against the random baseline on identical pools."""
    evaluator = MethodEvaluator(pools, seed=seed)
    return evaluator.result("RANDOM"), evaluator.rows(names)


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
    config: SimConfig, curve_blocks: Sequence[int] = (0, 1, 2, 3)
) -> CharacterizationSeries:
    """Collect Figure 5's data: tBERS per block (top), tPROG per WL (bottom).

    Probes the first ``config.pool_blocks`` blocks of every plane of every
    chip of a fresh ``build_stack(config)`` (worn to ``config.pe_cycles``
    first when set, as :meth:`~repro.exp.build.Stack.pools` does), so the series
    never depend on what probed another stack of the same config before.
    """
    chips = build_stack(config).chips
    planes = range(config.geometry.planes_per_chip)
    pools = build_lane_pools(
        chips, range(config.pool_blocks), planes=planes, target_pe=config.pe_cycles
    )
    erase_series: Dict[Tuple[int, int], List[Tuple[int, float]]] = {
        (chip.chip_id, plane): [] for chip in chips for plane in planes
    }
    program_curves: Dict[Tuple[int, int], np.ndarray] = {}
    for pool in pools:
        for measurement in pool.blocks:
            key = (measurement.chip_id, measurement.plane)
            erase_series[key].append((measurement.block, measurement.erase_latency_us))
            if measurement.plane == 0 and measurement.block in curve_blocks:
                program_curves[(measurement.chip_id, measurement.block)] = (
                    measurement.lwl_latencies()
                )
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


def fig6_random_extra(evaluator: MethodEvaluator) -> RandomExtraSeries:
    """The evaluator's random baseline, superblock by superblock."""
    result = evaluator.result("RANDOM")
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


def fig14_per_superblock(evaluator: MethodEvaluator) -> PerSuperblockSeries:
    """Per-superblock extra program latency of STR-MED(4), QSTR-MED(4), RANDOM."""
    return PerSuperblockSeries(
        str_med=evaluator.result("STR-MED(4)").extra_program_us,
        qstr_med=evaluator.result("QSTR-MED(4)").extra_program_us,
        random=evaluator.result("RANDOM").extra_program_us,
    )
