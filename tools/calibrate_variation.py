"""Calibration harness for the process-variation model.

Runs the assembly-method comparison on the synthetic testbed and prints each
method's mean extra program/erase latency and improvement over random, next
to the paper's reported numbers (Tables I/II/V).  Used to tune
`VariationParams` defaults; re-run after any model change.

Usage:  python tools/calibrate_variation.py [--blocks N] [--seed S] [--fast]
"""

from __future__ import annotations

import argparse
import time

from repro.api import (
    build_stack,
    MethodEvaluator,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE5,
    SimConfig,
)

#: printed in this order; ``--fast`` leaves out the three slow searches.
METHODS = (
    "SEQUENTIAL",
    "ERS-LTN",
    "PGM-LTN",
    "STR-RANK(8)",
    "STR-RANK(6)",
    "STR-RANK(4)",
    "STR-RANK(2)",
    "STR-MED(4)",
)
SLOW_METHODS = ("OPTIMAL(8)", "LWL-RANK(8)", "PWL-RANK(8)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--chips", type=int, default=4)
    parser.add_argument("--fast", action="store_true", help="skip optimal/lwl/pwl")
    args = parser.parse_args()

    config = SimConfig.testbed(seed=args.seed, chips=args.chips, pool_blocks=args.blocks)
    t0 = time.time()
    pools = build_stack(config).pools()
    print(f"probed {sum(len(p) for p in pools)} blocks in {time.time()-t0:.1f}s")

    evaluator = MethodEvaluator(pools)
    baseline = evaluator.result("RANDOM")
    paper_random = PAPER_TABLE5["RANDOM"]
    paper = {**PAPER_TABLE2, **PAPER_TABLE1}
    print(
        f"\n{'method':<14} {'PGM us':>10} {'ERS us':>8} {'imp%':>7} {'paper%':>7}"
        f"   (random PGM paper {paper_random[0]:,.0f}, ERS {paper_random[1]})"
    )
    print(
        f"{'random':<14} {baseline.mean_extra_program_us:>10,.1f} "
        f"{baseline.mean_extra_erase_us:>8,.2f} {'-':>7} {'-':>7}"
    )
    for name in METHODS if args.fast else METHODS + SLOW_METHODS:
        t0 = time.time()
        row = evaluator.row(name)
        print(
            f"{row.result.name:<14} {row.result.mean_extra_program_us:>10,.1f} "
            f"{row.result.mean_extra_erase_us:>8,.2f} {row.improvement_pct:>7.2f} "
            f"{paper[name][1]:>7.2f}   [{time.time()-t0:.1f}s]"
        )


if __name__ == "__main__":
    main()
