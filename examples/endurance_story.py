#!/usr/bin/env python3
"""An SSD's life story: wear, error rates, retries, rescue by parity.

Walks one simulated drive from fresh to worn out, showing the reliability
substrate the reproduction adds around the paper's latency story: RBER
climbing with P/E cycles and retention, the ECC engine absorbing it, read
retries appearing near end of life, and RAID-4 row parity keeping data
readable after a lane effectively dies.

Run:  python examples/endurance_story.py
"""

import numpy as np

from repro.ftl import Ftl, FtlConfig
from repro.nand import (
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    PageType,
    VariationModel,
    VariationParams,
)
from repro.nand.errors import UncorrectableReadError


def fresh_chip(model, lane=0):
    return FlashChip(
        model.chip_profile(lane),
        SMALL_GEOMETRY,
        ecc=EccEngine(EccConfig(), SMALL_GEOMETRY),
    )


def main() -> None:
    params = VariationParams(
        factory_bad_ratio=0.0, endurance_cycles=100_000, endurance_sigma_log=0.0
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=42)

    # -- 1. wear and error rates on one chip -----------------------------------
    print("1) one block's reads as the drive wears (MSB pages):")
    print(f"{'P/E':>7} {'bake':>6} {'RBER':>10} {'corrected':>10} {'retries':>8} {'tR (us)':>9}")
    for pe, bake in [(0, 0), (2000, 0), (4000, 0), (6000, 0), (6000, 400)]:
        chip = fresh_chip(model)
        if pe:
            chip.stress_block(0, 0, pe)
        chip.erase_block(0, 0)
        chip.program_block(0, 0)
        if bake:
            chip.bake(bake)
        rber = chip.profile.page_rber(0, 0, 0, PageType.MSB, pe, bake)
        corrected, retries, latencies = 0, 0, []
        lost = 0
        for lwl in range(SMALL_GEOMETRY.lwls_per_block):
            try:
                result, _ = chip.read_page(0, 0, lwl, PageType.MSB)
            except UncorrectableReadError:
                lost += 1
                continue
            corrected += result.correction.corrected_bits
            retries += result.correction.retries
            latencies.append(result.latency_us)
        tail = f"{np.mean(latencies):>9.1f}" if latencies else f"{'-':>9}"
        line = (
            f"{pe:>7} {bake:>5}h {rber:>10.2e} {corrected:>10} {retries:>8} {tail}"
        )
        if lost:
            line += f"   <- {lost} pages UNCORRECTABLE (ECC exhausted)"
        print(line)

    # -- 2. a lane dies; parity carries the drive ----------------------------------
    print("\n2) lane 0 worn to death on a parity-protected 4-lane drive:")
    chips = []
    for lane in range(4):
        chip = fresh_chip(model, lane)
        if lane == 0:
            for block in range(10):
                chip.stress_block(0, block, 15_000)
        chips.append(chip)
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=10,
            overprovision_ratio=0.4,
            gc_low_watermark=2,
            gc_high_watermark=3,
            parity_protection=True,
        ),
    )
    ftl.format()
    count = ftl.logical_pages // 2
    for lpn in range(count):
        ftl.write(lpn)
    ftl.flush()
    ok = sum(1 for lpn in range(count) if ftl.read(lpn).located)
    print(
        f"   wrote {count} pages, read back {ok}/{count}; "
        f"{ftl.metrics.parity_reconstructions} pages rebuilt from row parity"
    )
    print(
        "   (without parity those reads raise UncorrectableReadError — "
        "try parity_protection=False)"
    )


if __name__ == "__main__":
    main()
