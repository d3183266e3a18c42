"""Extension: superpage-speed steering (Section V-D, sketched in the paper).

Runs the steering FTL (two open fast superblocks; small random host writes
take the superblock whose next super word-line predicts fastest, batch
writes take the other) under a mixed small/large workload and reports the
per-stream superpage completion latencies.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.core import WriteIntent, WriteSource
from repro.ftl import Ftl, FtlConfig, WriteStream
from repro.nand import FlashChip, NandGeometry, VariationModel, VariationParams
from repro.obs.artifacts import export_bench_artifacts
from repro.utils import derive_seed

GEOM = NandGeometry(
    planes_per_chip=1,
    blocks_per_plane=64,
    layers_per_block=24,
    strings_per_layer=4,
    bits_per_cell=3,
)


def run_workload(steering: bool):
    model = VariationModel(GEOM, VariationParams(factory_bad_ratio=0.0), seed=321)
    chips = [FlashChip(model.chip_profile(c), GEOM) for c in range(4)]
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=56,
            overprovision_ratio=0.3,
            gc_low_watermark=3,
            gc_high_watermark=5,
            superpage_steering=steering,
        ),
    )
    ftl.format()
    rng = np.random.default_rng(derive_seed(7, "bench", "superpage_steering"))
    small = WriteIntent(WriteSource.HOST, pages=1, sequential=False)
    big = WriteIntent(WriteSource.HOST, pages=32, sequential=True)
    for lpn in range(ftl.logical_pages):
        intent = small if rng.random() < 0.5 else big
        ftl.write(lpn, WriteSource.HOST, intent=intent)
    ftl.flush()
    return ftl


def test_superpage_steering(benchmark):
    ftl = benchmark.pedantic(lambda: run_workload(True), rounds=1, iterations=1)

    express = ftl.metrics.stream_write_us[WriteStream.FAST_EXPRESS.value]
    bulk = ftl.metrics.stream_write_us[WriteStream.FAST_BULK.value]

    print()
    print(
        render_table(
            ["Stream", "superpage programs", "mean completion (us)"],
            [
                ["express (small random)", f"{express.count}", f"{express.mean:,.1f}"],
                ["bulk (large batch)", f"{bulk.count}", f"{bulk.mean:,.1f}"],
            ],
        )
    )
    gain = (bulk.mean - express.mean) / bulk.mean * 100
    print(f"small random writes see {gain:.2f}% faster superpages")

    # Both streams carried substantial traffic, and the steering objective
    # held: express superpages complete faster than bulk ones.
    assert express.count > 200 and bulk.count > 200
    assert express.mean < bulk.mean
    # The predictor actually learned (it saw the burn-in plus runtime data).
    assert ftl.predictor is not None and ftl.predictor.observations > 10_000

    export_bench_artifacts(
        "bench_superpage_steering",
        {
            "express_programs": express.count,
            "express_mean_us": express.mean,
            "express_p99_us": express.p99,
            "bulk_programs": bulk.count,
            "bulk_mean_us": bulk.mean,
            "bulk_p99_us": bulk.p99,
            "express_gain_pct": gain,
        },
    )
