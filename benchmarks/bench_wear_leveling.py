"""Extension: static wear leveling under a hot/cold workload.

PV-aware allocation optimizes speed, not wear; a skewed overwrite pattern
concentrates erases on the blocks that recycle fastest.  This bench runs the
same hot/cold workload with and without the threshold wear leveler and
compares the erase-count spread.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.ftl import Ftl, FtlConfig, WearLevelingConfig
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
from repro.obs.artifacts import export_bench_artifacts
from repro.utils import derive_seed


def run(leveling: bool):
    model = VariationModel(
        SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=55
    )
    chips = [FlashChip(model.chip_profile(c), SMALL_GEOMETRY) for c in range(3)]
    config = FtlConfig(
        usable_blocks_per_plane=16,
        overprovision_ratio=0.35,
        gc_low_watermark=2,
        gc_high_watermark=3,
        wear_leveling=(
            WearLevelingConfig(pe_gap_threshold=8, check_interval_erases=4)
            if leveling
            else None
        ),
    )
    ftl = Ftl(chips, config)
    ftl.format()
    rng = np.random.default_rng(derive_seed(0, "bench", "wear_leveling"))
    hot = max(1, ftl.logical_pages // 10)
    for lpn in range(ftl.logical_pages):
        ftl.write(lpn)
    for _ in range(ftl.logical_pages * 8):
        if rng.random() < 0.95:
            ftl.write(int(rng.integers(hot)))
        else:
            ftl.write(int(rng.integers(hot, ftl.logical_pages)))
    ftl.flush()
    pes = [
        ftl.chips[lane].pe_cycles(0, block)
        for lane in ftl.lanes
        for block in range(config.usable_blocks_per_plane)
    ]
    return ftl, pes


def test_wear_leveling(benchmark):
    leveled_ftl, leveled_pes = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )
    plain_ftl, plain_pes = run(False)

    def describe(pes):
        return max(pes) - min(pes), max(pes), float(np.std(pes))

    plain_gap, plain_max, plain_std = describe(plain_pes)
    lev_gap, lev_max, lev_std = describe(leveled_pes)

    print()
    print(
        render_table(
            ["Config", "P/E gap", "max P/E", "P/E stdev", "rotations", "WAF"],
            [
                ["no leveling", str(plain_gap), str(plain_max), f"{plain_std:.1f}",
                 "-", f"{plain_ftl.metrics.write_amplification:.2f}"],
                ["threshold leveling", str(lev_gap), str(lev_max), f"{lev_std:.1f}",
                 str(leveled_ftl.wear_leveler.rotations_triggered),
                 f"{leveled_ftl.metrics.write_amplification:.2f}"],
            ],
        )
    )

    assert leveled_ftl.wear_leveler.rotations_triggered > 0
    # The leveler narrows the wear spread at a modest WAF cost.  The min-max
    # gap is a noisy extreme statistic, so it only must not regress; the
    # standard deviation is the robust measure and must clearly drop.
    assert lev_gap <= plain_gap
    assert lev_std < plain_std * 0.9
    assert (
        leveled_ftl.metrics.write_amplification
        < plain_ftl.metrics.write_amplification * 1.5
    )

    export_bench_artifacts(
        "bench_wear_leveling",
        {
            "plain_pe_gap": plain_gap,
            "plain_pe_stdev": plain_std,
            "plain_write_amplification": plain_ftl.metrics.write_amplification,
            "leveled_pe_gap": lev_gap,
            "leveled_pe_stdev": lev_std,
            "leveled_write_amplification": leveled_ftl.metrics.write_amplification,
            "rotations_triggered": leveled_ftl.wear_leveler.rotations_triggered,
        },
    )
