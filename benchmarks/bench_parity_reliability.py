"""Extension: RAID-4 parity over superblocks (Section VII's RAID designs).

Wears one lane until its pages exceed the ECC's strength, then shows the
parity-protected FTL serving every read through row reconstruction — at a
measurable degraded-read latency cost and a 1/N capacity cost.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.ftl import Ftl, FtlConfig
from repro.nand import (
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    VariationModel,
    VariationParams,
)
from repro.obs.artifacts import export_bench_artifacts

DEAD_PE = 15_000
BLOCKS = 12
LANES = 4


def build(parity: bool, weak_lane=0):
    params = VariationParams(
        factory_bad_ratio=0.0, endurance_cycles=100_000, endurance_sigma_log=0.0
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=71)
    chips = []
    for lane in range(LANES):
        chip = FlashChip(
            model.chip_profile(lane),
            SMALL_GEOMETRY,
            ecc=EccEngine(EccConfig(), SMALL_GEOMETRY),
        )
        if lane == weak_lane:
            for block in range(BLOCKS):
                chip.stress_block(0, block, DEAD_PE)
        chips.append(chip)
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=BLOCKS,
            overprovision_ratio=0.4,
            gc_low_watermark=2,
            gc_high_watermark=3,
            parity_protection=parity,
        ),
    )
    ftl.format()
    return ftl


def test_parity_reliability(benchmark):
    def run():
        ftl = build(parity=True)
        for lpn in range(ftl.logical_pages // 2):
            ftl.write(lpn)
        ftl.flush()
        latencies = [ftl.read(lpn).latency_us for lpn in range(ftl.logical_pages // 2)]
        return ftl, latencies

    ftl, latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    plain = build(parity=False)

    reads = ftl.logical_pages // 2
    reconstructed = ftl.metrics.parity_reconstructions
    print()
    print(
        render_table(
            ["Quantity", "value"],
            [
                ["logical pages (parity on)", f"{ftl.logical_pages:,}"],
                ["logical pages (parity off)", f"{plain.logical_pages:,}"],
                ["reads served", f"{reads:,}"],
                ["row reconstructions", f"{reconstructed:,}"],
                ["mean read latency", f"{np.mean(latencies):,.1f} us"],
                ["max read latency", f"{np.max(latencies):,.1f} us"],
            ],
        )
    )

    # Capacity cost is exactly one lane out of four.
    assert ftl.logical_pages == plain.logical_pages * (LANES - 1) // LANES
    # Roughly a quarter of the pages live on the dead lane and must be
    # reconstructed — and ALL reads succeeded (no exception escaped).
    assert 0.15 < reconstructed / reads < 0.4
    # Degraded reads are visibly slower than the clean ones.
    assert np.max(latencies) > np.median(latencies) * 2

    export_bench_artifacts(
        "bench_parity_reliability",
        {
            "logical_pages_parity_on": ftl.logical_pages,
            "logical_pages_parity_off": plain.logical_pages,
            "reads_served": reads,
            "row_reconstructions": reconstructed,
            "reconstruction_ratio": reconstructed / reads,
            "read_mean_us": float(np.mean(latencies)),
            "read_max_us": float(np.max(latencies)),
        },
    )
