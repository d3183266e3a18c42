"""Figure 12: improvement in program and erase latency vs the random baseline.

Paper: QSTR-MED reduces extra PGM latency by 16.61% and extra ERS latency by
59.82% vs random (the abstract quotes 34.55% for erase vs the traditional
method), within ~380 µs of the impractical optimal.
"""

from repro.api import render_table, TABLE5_METHODS

PAPER_PGM_IMP = {"SEQUENTIAL": 10.45, "OPTIMAL(8)": 19.49, "QSTR-MED(4)": 16.61, "STR-MED(4)": 16.74}


def test_fig12_improvement(benchmark, evaluator):
    rows = benchmark.pedantic(lambda: evaluator.rows(TABLE5_METHODS), rounds=1, iterations=1)

    body = []
    for name in TABLE5_METHODS:
        row = rows[name]
        body.append(
            [
                name,
                f"{row.improvement_pct:.2f}%",
                f"{row.erase_improvement_pct:.2f}%",
                f"{PAPER_PGM_IMP[name]:.2f}%",
            ]
        )
    print()
    print(render_table(["Method", "PGM imp", "ERS imp", "paper PGM imp"], body))

    qstr = rows["QSTR-MED(4)"]
    optimal = rows["OPTIMAL(8)"]
    # QSTR-MED's program improvement lands in the paper's band around 16.61%.
    assert 10 < qstr.improvement_pct < 25
    # Erase improvement is substantially larger than sequential achieves.
    assert qstr.erase_improvement_pct > rows["SEQUENTIAL"].erase_improvement_pct + 10
    # QSTR-MED trails optimal by only a small absolute delay (paper: 378 µs).
    delta = (
        qstr.result.mean_extra_program_us - optimal.result.mean_extra_program_us
    )
    print(f"QSTR-MED vs OPTIMAL delta: {delta:,.1f} us (paper 378.09 us)")
    assert 0 < delta < 1_500
