#!/usr/bin/env python3
"""Trace-driven SSD replay: QSTR-MED vs a random-allocation FTL.

Generates a Zipf overwrite trace (saving it to a CSV you can inspect or
swap for a converted production trace), replays it on two identically-sized
simulated SSDs — one allocating superblocks with QSTR-MED and routing
host/GC traffic to fast/slow superblocks, one allocating at random — and
prints the latency and extra-latency comparison.

Run:  python examples/ftl_trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.ftl import Ftl, FtlConfig
from repro.nand import FlashChip, NandGeometry, VariationModel, VariationParams
from repro.ssd import Ssd, TimingConfig
from repro.workloads import (
    ArrivalProcess,
    Replayer,
    load_trace,
    save_trace,
    sequential_fill,
    zipf_writes,
)

# Paper-like block structure, scaled down so the demo fills the drive and
# garbage-collects in a few seconds.
GEOMETRY = NandGeometry(
    planes_per_chip=1,
    blocks_per_plane=48,
    layers_per_block=24,
    strings_per_layer=4,
    bits_per_cell=3,
)


def build_ssd(allocator_kind: str) -> Ssd:
    model = VariationModel(GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=99)
    chips = [FlashChip(model.chip_profile(c), GEOMETRY) for c in range(4)]
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=40,
            overprovision_ratio=0.28,
            gc_low_watermark=3,
            gc_high_watermark=5,
        ),
        allocator_kind=allocator_kind,
    )
    ftl.format()
    return Ssd(ftl, TimingConfig())


def main() -> None:
    probe = build_ssd("random")
    logical_pages = probe.ftl.logical_pages
    arrivals = ArrivalProcess(mean_interarrival_us=8000.0)

    # 1. Generate and save the trace (swap this file for your own workload).
    fill = sequential_fill(logical_pages, arrivals=arrivals, seed=1)
    overwrites = zipf_writes(
        logical_pages, int(logical_pages * 0.7), theta=1.2, arrivals=arrivals, seed=2
    )
    trace_path = Path(tempfile.gettempdir()) / "repro_zipf_trace.csv"
    save_trace(trace_path, overwrites, header="zipf(1.2) overwrite phase")
    print(f"trace saved to {trace_path} ({len(overwrites)} requests)")
    overwrites = load_trace(trace_path)

    # 2. Replay on both FTLs.
    print(f"replaying fill ({len(fill)} reqs) + overwrites on two SSDs ...\n")
    rows = []
    for kind in ("qstr", "random"):
        ssd = build_ssd(kind)
        replayer = Replayer(ssd)
        replayer.replay(fill)
        report = replayer.replay(overwrites)
        metrics = ssd.ftl.metrics
        rows.append(
            (
                kind,
                metrics.extra_program_us.mean,
                metrics.extra_erase_us.mean if metrics.extra_erase_us.count else 0.0,
                report.mean_write_us(),
                metrics.write_amplification,
                metrics.gc_runs,
            )
        )

    header = f"{'allocator':<10}{'extra PGM/op':>14}{'extra ERS':>11}{'host write us':>15}{'WAF':>6}{'GC':>5}"
    print(header)
    print("-" * len(header))
    for kind, extra_pgm, extra_ers, write_us, waf, gc in rows:
        print(
            f"{kind:<10}{extra_pgm:>14,.1f}{extra_ers:>11,.1f}"
            f"{write_us:>15,.1f}{waf:>6.2f}{gc:>5.0f}"
        )

    qstr, random_row = rows[0], rows[1]
    print(
        f"\nQSTR-MED superblocks waste {100 * (1 - qstr[1] / random_row[1]):.1f}% less "
        f"time on extra program latency under the same trace."
    )


if __name__ == "__main__":
    main()
