#!/usr/bin/env python3
"""Chip characterization walkthrough (the paper's Section III).

Probes two chips, then shows the three observations that motivate
PV-aware superblock organization:

1. block erase latency varies block-to-block and chip-to-chip (Figure 5 top);
2. word-line program-latency *trends* are similar within a chip but diverge
   across chips once the common layer shape is removed (Figure 5 bottom);
3. condensing a block's string speeds into a 1-bit-per-word-line eigen
   sequence (Figure 9) makes similarity a cheap XOR.

Run:  python examples/characterize_chips.py
"""

from repro.api import (
    build_stack,
    eigen_sequence,
    mean_lwl_curve,
    render_series_block,
    residual_trend_correlation,
    SimConfig,
    sparkline,
    variability_report,
)


def main() -> None:
    print("probing 2 chips x 120 blocks ...")
    pools = build_stack(SimConfig.testbed(seed=7, chips=2, pool_blocks=120)).pools()

    # -- 1. erase latency spread -------------------------------------------------
    print()
    erase_series = {
        f"chip {pool.lane}": [m.erase_latency_us for m in pool.blocks] for pool in pools
    }
    print(render_series_block("tBERS per block [us] (Fig 5 top)", erase_series))
    report = variability_report(
        [m for pool in pools for m in pool.blocks], "program_total"
    )
    print(
        f"\nblock program-latency spread: within-chip std "
        f"{report.within_chip_std:,.0f} us, cross-chip std {report.cross_chip_std:,.0f} us"
    )

    # -- 2. word-line trends ---------------------------------------------------------
    chip0, chip1 = pools[0].blocks, pools[1].blocks
    common = mean_lwl_curve(chip0 + chip1)
    within = residual_trend_correlation(chip0[0], chip0[1], common)
    across = residual_trend_correlation(chip0[0], chip1[0], common)
    print(
        f"residual WL-trend correlation: {within:+.3f} within chip 0, "
        f"{across:+.3f} across chips (process similarity lives inside a chip)"
    )

    # -- 3. eigen sequences -------------------------------------------------------------
    print("\neigen sequences (first 48 bits) and XOR distances to chip0/block0:")
    reference = eigen_sequence(chip0[0].wl_latencies_us)
    for label, m in [("chip0 blk0", chip0[0]), ("chip0 blk1", chip0[1]),
                     ("chip1 blk0", chip1[0]), ("chip1 blk1", chip1[1])]:
        eigen = eigen_sequence(m.wl_latencies_us)
        prefix = "".join(str(b) for b in eigen.to_bits()[:48])
        print(f"  {label}: {prefix}...  distance={reference.hamming_distance(eigen):3d}")

    # raw tPROG curves, for the V-shape
    print()
    curve = chip0[0].lwl_latencies()
    print("chip0/blk0 tPROG per WL:", sparkline(curve, 64))
    print(f"  (min {curve.min():,.0f} us, max {curve.max():,.0f} us — the 3D channel V-shape)")


if __name__ == "__main__":
    main()
