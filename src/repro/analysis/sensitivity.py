"""Sensitivity of the reproduction to the synthetic-chip assumptions.

The variation model's magnitudes are calibrated to the paper's numbers, so
a fair question is whether QSTR-MED's advantage is an artifact of that
calibration.  This driver re-runs the headline comparison while scaling one
model ingredient at a time (noise, string-pattern strength, chip profile,
measurement quantization) and over fresh wafer seeds, reporting how the
improvement moves.  The claim that must survive: QSTR-MED beats random by a
meaningful margin whenever *any* block-level similarity exists — the exact
percentage, not the effect, is what calibration pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from repro.assembly import RandomAssembler, evaluate_assembler
from repro.core import QstrMedAssembler
from repro.exp import SimConfig, build_stack
from repro.nand import PAPER_GEOMETRY, NandGeometry, VariationParams


@dataclass(frozen=True)
class SensitivityPoint:
    """One model variant's outcome."""

    label: str
    random_extra_pgm_us: float
    qstr_extra_pgm_us: float
    qstr_improvement_pct: float
    qstr_erase_improvement_pct: float


#: knob name -> how to apply a scale factor to the params
KNOBS: Dict[str, Callable[[VariationParams, float], VariationParams]] = {
    "wl_noise": lambda p, f: replace(p, sigma_wl_noise_us=p.sigma_wl_noise_us * f),
    "string_pattern": lambda p, f: replace(p, sigma_string_us=p.sigma_string_us * f),
    "chip_profile": lambda p, f: replace(
        p, sigma_chip_profile_us=p.sigma_chip_profile_us * f
    ),
    "quantization": lambda p, f: replace(p, prog_quant_us=p.prog_quant_us * f),
    "block_offsets": lambda p, f: replace(
        p,
        sigma_block_drift_us=p.sigma_block_drift_us * f,
        sigma_block_resid_us=p.sigma_block_resid_us * f,
    ),
}


def evaluate_variant(
    label: str,
    params: VariationParams,
    *,
    geometry: NandGeometry = PAPER_GEOMETRY,
    seed: int = 2024,
    chips: int = 4,
    pool_blocks: int = 150,
) -> SensitivityPoint:
    """Run the random-vs-QSTR-MED comparison under one model variant."""
    config = SimConfig.testbed(
        seed=seed,
        chips=chips,
        pool_blocks=pool_blocks,
        geometry=geometry,
        variation=params,
    )
    pools = build_stack(config).pools()
    baseline = evaluate_assembler(RandomAssembler(seed=1), pools)
    qstr = evaluate_assembler(QstrMedAssembler(4), pools)
    return SensitivityPoint(
        label=label,
        random_extra_pgm_us=baseline.mean_extra_program_us,
        qstr_extra_pgm_us=qstr.mean_extra_program_us,
        qstr_improvement_pct=qstr.program_improvement_vs(baseline),
        qstr_erase_improvement_pct=qstr.erase_improvement_vs(baseline),
    )


def knob_sweep(
    knob: str,
    factors: Sequence[float] = (0.5, 1.0, 2.0),
    **kwargs,
) -> List[SensitivityPoint]:
    """Scale one model ingredient and re-run the comparison at each factor."""
    if knob not in KNOBS:
        raise ValueError(f"unknown knob {knob!r}; pick from {sorted(KNOBS)}")
    apply = KNOBS[knob]
    return [
        evaluate_variant(f"{knob} x{factor:g}", apply(VariationParams(), factor), **kwargs)
        for factor in factors
    ]


def seed_sweep(seeds: Sequence[int], **kwargs) -> List[SensitivityPoint]:
    """Fresh wafers: same magnitudes, different realizations."""
    return [
        evaluate_variant(f"seed {seed}", VariationParams(), seed=seed, **kwargs)
        for seed in seeds
    ]
