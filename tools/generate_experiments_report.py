#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs the full evaluation at paper scale (4 chips x 400-block pools, default
calibrated parameters, seed 2024) plus the P/E sweep and the end-to-end
placement experiment, and writes the record the repo ships.  Sections of
an existing report whose heading says "paper-extending" are written by
hand (or by their own tools); they are carried over verbatim, in order,
ahead of the known deviations.

Usage:  python tools/generate_experiments_report.py [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import io
import os
import time
from contextlib import redirect_stdout
from typing import List

import numpy as np

from repro.analysis import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    TABLE5_METHODS,
    fig13_distributions,
    fig14_per_superblock,
    fig6_random_extra,
)
from repro.analysis.figures import (
    cumulative_mean,
    render_histogram,
    render_series_block,
)
from repro.analysis.tables import PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE5
from repro.core import (
    FootprintModel,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.exp import MethodEvaluator, SimConfig, build_stack
from repro.exp.sweep import Sweep, run as run_sweep
from repro.nand import PAPER_GEOMETRY
from repro.utils.units import TIB, format_bytes


def carried_sections(path: str) -> List[str]:
    """The "paper-extending" sections of the report at ``path``, as lines."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    carried: List[str] = []
    keep = False
    for line in lines:
        if line.startswith("## "):
            keep = "paper-extending" in line
        elif line.startswith("_Total generation time"):
            keep = False
        if keep:
            carried.append(line)
    return carried


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(out)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--pe-step", type=int, default=300)
    args = parser.parse_args()

    t0 = time.time()
    print("building testbed and probing pools ...")
    evaluator = MethodEvaluator(build_stack(SimConfig.testbed()).pools())
    baseline = evaluator.result("RANDOM")
    row = evaluator.row

    lines = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Auto-generated by `python tools/generate_experiments_report.py`.")
    w("")
    w(
        "Setup: 4 synthetic chips (calibrated `VariationParams` defaults, seed "
        "2024), 400-block pools per chip, paper geometry (4 planes, 96 layers x "
        "4 strings, TLC).  Absolute microseconds depend on the synthetic chip "
        "calibration; the claims to check are the *orderings and rough factors*."
    )
    w("")

    # ---- Table I ----------------------------------------------------------
    w("## Table I — eight directions (extra PGM latency reduction vs random)")
    w("")
    body = []
    for name in TABLE1_METHODS:
        paper = PAPER_TABLE1[name]
        r = row(name)
        body.append(
            [name, f"{r.reduction_us:,.2f}", f"{r.improvement_pct:.2f}%",
             f"{paper[0]:,.2f}", f"{paper[1]:.2f}%"]
        )
    w(md_table(["Method", "measured down (us)", "measured Imp.", "paper down (us)", "paper Imp."], body))
    w("")
    w(
        "Reproduced: every direction beats random; OPTIMAL is best; STR-RANK is "
        "the closest practical direction; the coarse string signatures beat the "
        "over-informative LWL/PWL ranks; ERS-LTN is the weakest signal."
    )
    w("")

    # ---- Table II ------------------------------------------------------------
    w("## Table II — STR-RANK window sweep")
    w("")
    body = []
    for name in TABLE2_METHODS:
        r = row(name)
        body.append([name, f"{r.improvement_pct:.2f}%", f"{PAPER_TABLE2[name][1]:.2f}%"])
    w(md_table(["Window", "measured Imp.", "paper Imp."], body))
    w("")
    w("Reproduced: monotone in window size with diminishing returns above 4.")
    w("")

    # ---- Table V ----------------------------------------------------------------
    w("## Table V — extra program/erase latency (absolute)")
    w("")
    body = [
        ["RANDOM", f"{baseline.mean_extra_program_us:,.2f}",
         f"{baseline.mean_extra_erase_us:.2f}",
         f"{PAPER_TABLE5['RANDOM'][0]:,.2f}", f"{PAPER_TABLE5['RANDOM'][1]:.2f}"]
    ]
    for name in TABLE5_METHODS:
        r = row(name)
        paper = PAPER_TABLE5[name]
        body.append(
            [name, f"{r.result.mean_extra_program_us:,.2f}",
             f"{r.result.mean_extra_erase_us:.2f}", f"{paper[0]:,.2f}", f"{paper[1]:.2f}"]
        )
    w(md_table(["Method", "PGM (us)", "ERS (us)", "paper PGM", "paper ERS"], body))
    w("")
    qstr = row("QSTR-MED(4)")
    opt = row("OPTIMAL(8)")
    # erase reductions of the similarity methods, measured and paper
    similarity = ["OPTIMAL(8)", "QSTR-MED(4)", "STR-MED(4)"]
    ers_imps = [row(name).erase_improvement_pct for name in similarity]
    paper_ers_imps = [
        (1 - PAPER_TABLE5[name][1] / PAPER_TABLE5["RANDOM"][1]) * 100 for name in similarity
    ]
    ers_span = f"{min(ers_imps):.1f}-{max(ers_imps):.1f}%"
    paper_ers_span = f"~{min(paper_ers_imps):.0f}-{max(paper_ers_imps):.0f}%"
    w(
        f"Reproduced: QSTR-MED within "
        f"{qstr.result.mean_extra_program_us - opt.result.mean_extra_program_us:,.0f} us "
        f"of the impractical optimal (paper: 378 us), and within "
        f"{abs(qstr.result.mean_extra_program_us - row('STR-MED(4)').result.mean_extra_program_us):,.0f} us "
        "of STR-MED.  Erase: similarity grouping collapses the spread while "
        f"sequential barely moves it ({row('SEQUENTIAL').erase_improvement_pct:.1f}%); "
        f"our similarity methods' erase reductions ({ers_span}) are smaller than "
        f"the paper's ({paper_ers_span}) — see 'Known deviations'."
    )
    w("")

    # ---- Figures 6 & 12 ------------------------------------------------------------
    w("## Figure 6 — random-assembly extra latency")
    w("")
    fig6 = fig6_random_extra(evaluator)
    w(
        f"Measured mean extra PGM {fig6.mean_program:,.2f} us (paper 13,084.17), "
        f"mean extra ERS {fig6.mean_erase:,.2f} us (paper 41.71)."
    )
    w("")
    w("## Figure 12 — improvement vs random")
    w("")
    body = []
    for name in TABLE5_METHODS:
        r = row(name)
        body.append([name, f"{r.improvement_pct:.2f}%", f"{r.erase_improvement_pct:.2f}%"])
    w(md_table(["Method", "PGM improvement", "ERS improvement"], body))
    w("")
    w(
        f"Paper: QSTR-MED 16.61% PGM / 34.55-59.82% ERS. Measured: "
        f"{qstr.improvement_pct:.2f}% PGM / {qstr.erase_improvement_pct:.2f}% ERS."
    )
    w("")

    # ---- Figure 13 --------------------------------------------------------------------
    w("## Figure 13 — extra-PGM-latency distributions")
    w("")
    hists = fig13_distributions({"QSTR-MED(4)": qstr}, baseline, bins=18)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        print(render_histogram("RANDOM", hists["RANDOM"], width=30))
        print()
        print(render_histogram("QSTR-MED(4)", hists["QSTR-MED(4)"], width=30))
    w("```")
    w(buffer.getvalue().rstrip())
    w("```")
    w(
        f"Reproduced: the distribution shifts left (mode "
        f"{hists['RANDOM'].mode_center():,.0f} -> "
        f"{hists['QSTR-MED(4)'].mode_center():,.0f} us)."
    )
    w("")

    # ---- Figure 14 ------------------------------------------------------------------------
    w("## Figure 14 — per-superblock trend, STR-MED vs QSTR-MED")
    w("")
    fig14 = fig14_per_superblock(evaluator)
    str_trend = cumulative_mean(fig14.str_med)
    qstr_trend = cumulative_mean(fig14.qstr_med)
    corr = float(np.corrcoef(str_trend, qstr_trend)[0, 1])
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        print(
            render_series_block(
                "running-mean extra PGM latency [us]",
                {"STR-MED(4)": str_trend, "QSTR-MED(4)": qstr_trend,
                 "RANDOM": cumulative_mean(fig14.random)},
            )
        )
    w("```")
    w(buffer.getvalue().rstrip())
    w("```")
    w(
        f"Reproduced: the two practical schemes mirror each other (running-mean "
        f"correlation {corr:.3f}; final means within "
        f"{abs(str_trend[-1] - qstr_trend[-1]) / str_trend[-1] * 100:.1f}%)."
    )
    w("")

    # ---- Figure 15 -----------------------------------------------------------------------------
    print("running P/E sweep ...")
    w("## Figure 15 — P/E cycle sensitivity")
    w("")
    # Each cell wears a fresh copy of the same chips to its epoch;
    # stress_block is a pure counter, so this equals re-probing one set of
    # chips in ascending P/E order (the paper's chamber runs).
    sweep = Sweep(
        "methods",
        base=SimConfig.testbed(seed=4242, pool_blocks=200),
        params={"methods": ["QSTR-MED(4)"]},
    ).over("pe_cycles", range(0, 3001, args.pe_step))
    body, imps = [], []
    for cell in run_sweep(sweep, workers=2).cells:
        rand_doc = cell.result["baseline"]
        qstr_doc = cell.result["methods"]["QSTR-MED(4)"]
        imps.append(1 - qstr_doc["mean_extra_program_us"] / rand_doc["mean_extra_program_us"])
        body.append(
            [cell.result["pe_cycles"], f"{rand_doc['mean_extra_program_us']:,.0f}",
             f"{qstr_doc['mean_extra_program_us']:,.0f}", f"{imps[-1] * 100:.1f}%",
             f"{rand_doc['mean_extra_erase_us']:.1f}", f"{qstr_doc['mean_extra_erase_us']:.1f}"]
        )
    w(md_table(["P/E", "random PGM", "QSTR PGM", "QSTR imp", "random ERS", "QSTR ERS"], body))
    w("")
    w(
        f"Reproduced: QSTR-MED wins at every wear level and its improvement is "
        f"stable across P/E (mean {np.mean(imps) * 100:.1f}%, cv "
        f"{np.std(imps) / np.mean(imps):.2f})."
    )
    w("")

    # ---- overheads ------------------------------------------------------------------------------
    w("## Section VI-B2 / VI-D1 — overheads")
    w("")
    footprint = FootprintModel(PAPER_GEOMETRY)
    w(
        f"- Combination checks per superblock: STR-MED(4) {str_med_pair_checks(4, 4):,} "
        f"vs QSTR-MED {qstr_med_pair_checks(4, 4)} -> {overhead_reduction_pct():.2f}% "
        "reduction (paper 99.22%).  Matches exactly: both counts are structural."
    )
    w(
        f"- Metadata: {footprint.bytes_per_block} B per block (paper: 52 B), "
        f"{format_bytes(footprint.footprint_bytes(TIB))} per 1 TB drive "
        "(paper ~6.5 MB for 8 MB blocks; our 18 MB-user-data blocks need fewer entries)."
    )
    w("")

    # ---- known deviations -----------------------------------------------------------------------
    for line in carried_sections(args.out):
        w(line)
    w("## Known deviations")
    w("")
    w(
        "1. **Absolute latencies** come from the calibrated synthetic chips, "
        "not SK hynix silicon.  The random baselines are calibrated to the "
        f"paper's magnitudes ({baseline.mean_extra_program_us:,.0f} us program vs "
        f"{PAPER_TABLE5['RANDOM'][0]:,.0f} us, {baseline.mean_extra_erase_us:.1f} us "
        f"erase vs {PAPER_TABLE5['RANDOM'][1]:.2f} us); the claims are the "
        "orderings and factors."
    )
    w(
        f"2. **Erase-side reductions** reach {ers_span} vs the paper's "
        f"{paper_ers_span}: our methods recover less of the erase-relevant "
        "block similarity than the real chips allowed (the erase coupling to "
        "the matchable components is conservative)."
    )
    opt_gap = opt.improvement_pct - PAPER_TABLE1["OPTIMAL(8)"][1]
    w(
        f"3. **OPTIMAL** lands {opt_gap:.1f} points above the paper's "
        f"{PAPER_TABLE1['OPTIMAL(8)'][1]:.2f}% — our 2-opt refinement is a "
        "slightly stronger 'local optimal' than the paper's (underspecified) "
        "brute-force procedure."
    )
    rank_gap = row("PWL-RANK(8)").improvement_pct - row("LWL-RANK(8)").improvement_pct
    paper_rank_gap = PAPER_TABLE1["PWL-RANK(8)"][1] - PAPER_TABLE1["LWL-RANK(8)"][1]
    w(
        f"4. **LWL-RANK vs PWL-RANK**: PWL-RANK leads by {rank_gap:.2f} points "
        f"(paper: {paper_rank_gap:.2f}); the two over-informative rank directions "
        "land close together on the synthetic chips."
    )
    w(
        "5. **Figure 5's absolute tPROG band** (~1,540-1,950 us) and tBERS band "
        "(~3.4-3.6 ms) were chosen to match the paper's plots; the per-curve "
        "wiggles are synthetic."
    )
    w("")
    w(f"_Total generation time: {time.time() - t0:.0f}s._")

    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
