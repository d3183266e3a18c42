#!/usr/bin/env python3
"""QSTR-MED at runtime: gathering, sorted catalogs, on-demand assembly.

Demonstrates the scheme exactly as an FTL would drive it (Figure 8):
word-line program latencies stream into the gathering unit, finished blocks
land in per-chip sorted catalogs, and fast/slow superblocks assemble on
demand with 12 pair checks each — then shows the space/compute overheads of
Section VI.

Run:  python examples/ondemand_assembly.py
"""

from repro.api import (
    build_stack,
    FootprintModel,
    format_bytes,
    overhead_reduction_pct,
    PAPER_GEOMETRY,
    qstr_med_pair_checks,
    QstrMedScheme,
    SimConfig,
    SpeedClass,
    str_med_pair_checks,
    TIB,
    WriteIntent,
    WriteSource,
)


def main() -> None:
    chips = dict(enumerate(build_stack(SimConfig.testbed(seed=11, chips=4)).chips))
    lanes = list(chips)
    scheme = QstrMedScheme(PAPER_GEOMETRY, lanes, candidate_depth=4)

    # -- gathering: program blocks and stream the latencies in -----------------
    print("gathering similarity data for 4 chips x 24 blocks ...")
    for lane, chip in chips.items():
        for block in range(24):
            if chip.is_bad(0, block):
                continue
            chip.erase_block(0, block)
            scheme.note_block_allocated(lane, 0, block, chip.pe_cycles(0, block))
            for lwl in range(PAPER_GEOMETRY.lwls_per_block):
                latency = chip.program_wordline(0, block, lwl).latency_us
                scheme.note_wordline_programmed(lane, 0, block, lwl, latency)
            chip.erase_block(0, block)
            scheme.note_block_freed(lane, 0, block)

    for lane in lanes:
        catalog = scheme.catalog(lane)
        fastest = catalog.fastest()
        slowest = catalog.slowest()
        print(
            f"  chip {lane}: {len(catalog)} free blocks, "
            f"fastest b{fastest.block} ({fastest.pgm_total_us:,.0f} us), "
            f"slowest b{slowest.block} ({slowest.pgm_total_us:,.0f} us)"
        )

    # -- assembly on demand ------------------------------------------------------
    print("\nassembling on demand:")
    host = scheme.assemble_for(WriteIntent(WriteSource.HOST))  # -> FAST
    gc = scheme.assemble_for(WriteIntent(WriteSource.GC))      # -> SLOW
    for choice in (host, gc):
        members = ", ".join(
            f"c{r.lane}/b{r.block}" for r in choice.members
        )
        print(
            f"  {choice.speed_class.value:>4} superblock: [{members}] "
            f"(reference chip {choice.reference_lane}, "
            f"{choice.pair_checks} eigen pair checks)"
        )

    fast_mean = sum(r.pgm_total_us for r in host.members) / len(host.members)
    slow_mean = sum(r.pgm_total_us for r in gc.members) / len(gc.members)
    print(
        f"  fast SB mean block latency {fast_mean:,.0f} us vs slow SB "
        f"{slow_mean:,.0f} us — placement can route host writes to the fast one"
    )

    # -- overheads (Section VI) -----------------------------------------------------
    print("\noverheads:")
    print(
        f"  combination checks per superblock: STR-MED(4) {str_med_pair_checks(4, 4):,} "
        f"vs QSTR-MED {qstr_med_pair_checks(4, 4)} "
        f"({overhead_reduction_pct():.2f}% fewer)"
    )
    footprint = FootprintModel(PAPER_GEOMETRY)
    print(
        f"  metadata: {footprint.bytes_per_block} B per block, "
        f"{format_bytes(footprint.footprint_bytes(TIB))} per 1 TB SSD "
        f"(Equation 2); this runtime instance holds "
        f"{format_bytes(scheme.metadata_bytes())}"
    )


if __name__ == "__main__":
    main()
