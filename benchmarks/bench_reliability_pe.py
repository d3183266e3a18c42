"""Extension: read reliability vs wear (the Section VI-C backdrop).

The paper evaluates QSTR-MED under high P/E cycles because wear means
"elevated bit error rates".  This bench drives the substrate's reliability
path across wear levels: corrected bits climb, read-retries appear near end
of life, and the retry latency shows up in read times.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.nand import (
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    PageType,
    VariationModel,
    VariationParams,
)

PE_POINTS = (0, 1500, 3000, 4500, 6000)


def measure(pe: int):
    params = VariationParams(
        factory_bad_ratio=0.0, endurance_cycles=100_000, endurance_sigma_log=0.0
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=13)
    engine = EccEngine(EccConfig(), SMALL_GEOMETRY)
    chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY, ecc=engine)
    corrected = []
    latencies = []
    for block in range(4):
        if pe:
            chip.stress_block(0, block, pe)
        chip.erase_block(0, block)
        chip.program_block(0, block)
        for lwl in range(SMALL_GEOMETRY.lwls_per_block):
            result, _ = chip.read_page(0, block, lwl, PageType.MSB)
            corrected.append(result.correction.corrected_bits)
            latencies.append(result.latency_us)
    return {
        "pe": pe,
        "mean_corrected": float(np.mean(corrected)),
        "retry_rate": engine.retry_rate,
        "mean_read_us": float(np.mean(latencies)),
        "uncorrectable": engine.uncorrectable_pages,
    }


def test_reliability_pe(benchmark):
    points = benchmark.pedantic(
        lambda: [measure(pe) for pe in PE_POINTS], rounds=1, iterations=1
    )

    print()
    print(
        render_table(
            ["P/E", "mean corrected bits", "retry rate", "mean tR (us)", "uncorrectable"],
            [
                [
                    str(p["pe"]),
                    f"{p['mean_corrected']:.1f}",
                    f"{p['retry_rate']:.4f}",
                    f"{p['mean_read_us']:.1f}",
                    str(p["uncorrectable"]),
                ]
                for p in points
            ],
        )
    )

    corrected = [p["mean_corrected"] for p in points]
    # Bit errors grow monotonically with wear.
    assert all(a <= b for a, b in zip(corrected, corrected[1:]))
    assert corrected[-1] > corrected[0] * 50
    # Retries appear near end of life and cost read latency.
    # Fresh blocks must need literally zero retries; the exact-zero compare
    # is deliberate (the rate is a count ratio, not an accumulated float).
    assert points[0]["retry_rate"] == 0.0  # reprolint: disable=NUM001
    assert points[-1]["retry_rate"] > 0.0
    assert points[-1]["mean_read_us"] > points[0]["mean_read_us"]
    # Within the endurance budget nothing is uncorrectable.
    assert all(p["uncorrectable"] == 0 for p in points)
