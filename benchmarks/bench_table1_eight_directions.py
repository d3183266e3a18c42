"""Table I: the eight superblock-organization directions.

Paper improvements over random: SEQ 10.45%, ERS-LTN 8.55%, PGM-LTN 10.37%,
OPTIMAL(8) 19.49%, LWL-RANK(8) 14.11%, PWL-RANK(8) 15.57%, STR-RANK(8)
18.27%, STR-MED(4) 16.74%.  We assert the orderings, not the digits.
"""

from repro.analysis import TABLE1_METHODS
from repro.analysis.tables import render_table1


def test_table1_eight_directions(benchmark, evaluator):
    rows = benchmark.pedantic(
        lambda: evaluator.rows(TABLE1_METHODS), rounds=1, iterations=1
    )

    print()
    print(render_table1(rows))

    imp = {name: row.improvement_pct for name, row in rows.items()}

    # Everyone beats random.
    for name, value in imp.items():
        assert value > 0, name
    # The local optimal is the ground reference: best of all.
    assert imp["OPTIMAL(8)"] == max(imp.values())
    # STR-RANK(8) is the closest practical direction to optimal.
    runners = {k: v for k, v in imp.items() if k != "OPTIMAL(8)"}
    assert imp["STR-RANK(8)"] == max(runners.values())
    # Coarse string signatures beat the over-informative fine ranks.
    assert imp["STR-RANK(8)"] > imp["PWL-RANK(8)"]
    assert imp["STR-RANK(8)"] > imp["LWL-RANK(8)"]
    # STR-MED(4) stays within ~2 points of STR-RANK at the same window — the
    # 1-bit signature loses little (Table I: 16.74 vs 17.42).
    assert imp["STR-MED(4)"] > imp["PGM-LTN"]
    # The latency sorts sit in the ~8-13% band; ERS-LTN is the weakest of
    # the three non-random zips.
    assert imp["ERS-LTN"] < imp["SEQUENTIAL"]
    assert imp["ERS-LTN"] < max(imp["PGM-LTN"], imp["SEQUENTIAL"])
    # Rough magnitudes hold (half to 1.5x the paper's reported numbers).
    assert 9 < imp["OPTIMAL(8)"] < 30
    assert 9 < imp["STR-RANK(8)"] < 28
    assert 4 < imp["SEQUENTIAL"] < 17
