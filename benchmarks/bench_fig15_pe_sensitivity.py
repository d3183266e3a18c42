"""Figure 15: program/erase latency under P/E cycles 0..3000.

The paper stresses the blocks between epochs and shows QSTR-MED's latencies
stay consistent as the drive wears — it keeps re-organizing superblocks with
minimal extra latency at every wear level.

Runs as a parallel sweep over ``pe_cycles`` through the ``methods`` task:
each cell wears a fresh (same-seed, hence identical) testbed to its epoch
and evaluates QSTR-MED against the random baseline.  ``stress_block`` is a
pure counter, so per-cell wear at ``target_pe`` matches the paper's
sequential chamber runs exactly.
"""

import numpy as np

from repro.analysis.figures import render_series_block
from repro.exp import SimConfig
from repro.exp.sweep import Sweep, run as run_sweep

PE_POINTS = tuple(range(0, 3001, 300))


def test_fig15_pe_sensitivity(benchmark):
    # Fresh chips per cell: this bench wears them out, so it must not share
    # the session testbed with the other benches.
    sweep = Sweep(
        "methods",
        base=SimConfig.testbed(seed=4242, pool_blocks=200),
        params={"methods": ["QSTR-MED(4)"]},
    ).over("pe_cycles", PE_POINTS)

    result = benchmark.pedantic(
        lambda: run_sweep(sweep, workers=2), rounds=1, iterations=1
    )

    pes = [cell.result["pe_cycles"] for cell in result.cells]
    random_pgm = result.column("baseline.mean_extra_program_us")
    qstr_pgm = result.column("methods.QSTR-MED(4).mean_extra_program_us")
    random_ers = result.column("baseline.mean_extra_erase_us")
    qstr_ers = result.column("methods.QSTR-MED(4).mean_extra_erase_us")

    print()
    print(f"P/E points: {pes}")
    print(
        render_series_block(
            "Fig 15 (top) extra PGM latency vs P/E [us]",
            {"RANDOM": random_pgm, "QSTR-MED(4)": qstr_pgm},
        )
    )
    print(
        render_series_block(
            "Fig 15 (bottom) extra ERS latency vs P/E [us]",
            {"RANDOM": random_ers, "QSTR-MED(4)": qstr_ers},
        )
    )

    # QSTR-MED wins at every single wear level.
    for pe, r, q in zip(pes, random_pgm, qstr_pgm):
        assert q < r, f"PE {pe}"
    for pe, r, q in zip(pes, random_ers, qstr_ers):
        assert q < r, f"PE {pe}"

    # Consistency: QSTR-MED's improvement stays stable across wear
    # (coefficient of variation of the improvement below 25%).
    improvement = 1.0 - np.array(qstr_pgm) / np.array(random_pgm)
    cv = improvement.std() / improvement.mean()
    print(f"QSTR-MED PGM improvement per epoch: {np.round(improvement * 100, 2)} % (cv {cv:.2f})")
    assert cv < 0.25
