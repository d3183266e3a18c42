#!/usr/bin/env python3
"""Quickstart: measure the superpage problem and fix it with QSTR-MED.

Builds a four-chip synthetic testbed, probes 400 blocks per chip through the
normal chip API, then compares random superblock organization against the
paper's QSTR-MED scheme — printing the extra program/erase latency both ways.

Run:  python examples/quickstart.py
"""

from repro.api import build_stack, MethodEvaluator, SimConfig


def main() -> None:
    # 1. A synthetic testbed: four 3D TLC chips sharing one wafer's
    #    process-variation structure (the stand-in for the paper's hardware).
    stack = build_stack(SimConfig.testbed(seed=2024, chips=4, pool_blocks=400))

    # 2. Characterize: erase + fully program 400 blocks per chip, recording
    #    every word-line latency (this is what a tester — or the FTL's own
    #    gathering unit — sees).
    print("probing 4 chips x 400 blocks ...")
    evaluator = MethodEvaluator(stack.pools())

    # 3. Organize superblocks two ways and compare.
    random_result = evaluator.result("RANDOM")
    qstr_result = evaluator.result("QSTR-MED(4)")

    print(f"\n{'':24}{'extra PGM (us)':>16}{'extra ERS (us)':>16}")
    print(
        f"{'random organization':24}{random_result.mean_extra_program_us:>16,.1f}"
        f"{random_result.mean_extra_erase_us:>16,.2f}"
    )
    print(
        f"{'QSTR-MED organization':24}{qstr_result.mean_extra_program_us:>16,.1f}"
        f"{qstr_result.mean_extra_erase_us:>16,.2f}"
    )
    print(
        f"\nQSTR-MED cuts extra program latency by "
        f"{qstr_result.program_improvement_vs(random_result):.1f}% and extra erase "
        f"latency by {qstr_result.erase_improvement_vs(random_result):.1f}% "
        f"(paper: 16.61% / 34.55-59.82%)."
    )


if __name__ == "__main__":
    main()
