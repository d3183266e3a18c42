"""Ablation: eigen bit budget — 1-bit STR-MED vs full STR-RANK signatures.

DESIGN.md calls out the 1-bit-per-(layer, string) choice: how much quality
does the binarization give up vs the 2-bit string ranks at the same window,
and what does it buy in signature size?
"""

from repro.analysis.tables import render_table


def test_ablation_eigen_bits(benchmark, evaluator):
    names = ["STR-RANK(4)", "STR-MED(4)", "STR-RANK(8)"]
    rows = benchmark.pedantic(lambda: evaluator.rows(names), rounds=1, iterations=1)

    # signature cost per block at the paper's 384 LWLs
    rank_bits = 384 * 2  # ranks 0..3 per entry
    med_bits = 384

    print()
    print(
        render_table(
            ["Signature", "Imp. %", "bits/block"],
            [
                ["STR-RANK(4)", f"{rows['STR-RANK(4)'].improvement_pct:.2f}%", f"{rank_bits}"],
                ["STR-MED(4)", f"{rows['STR-MED(4)'].improvement_pct:.2f}%", f"{med_bits}"],
                ["STR-RANK(8)", f"{rows['STR-RANK(8)'].improvement_pct:.2f}%", f"{rank_bits}"],
            ],
        )
    )

    full = rows["STR-RANK(4)"].improvement_pct
    binary = rows["STR-MED(4)"].improvement_pct
    # Halving the bits costs at most ~3 points of improvement at window 4
    # (paper: 17.42% vs 16.74%) while enabling the XOR-popcount circuit.
    assert binary > full - 3.0
    assert binary > 8.0
