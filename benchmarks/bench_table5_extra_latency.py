"""Table V: extra program/erase latency of the headline methods.

Paper (µs): random 13,084.17 / 41.71; sequential 11,716.60 / 40.12;
optimal 10,533.44 / 22.65; QSTR-MED(4) 10,911.53 / 25.10;
STR-MED(4) 10,894.23 / 24.97.
"""

from repro.analysis import TABLE5_METHODS
from repro.analysis.tables import render_table5


def test_table5_extra_latency(benchmark, evaluator):
    rows = benchmark.pedantic(
        lambda: evaluator.rows(TABLE5_METHODS), rounds=1, iterations=1
    )
    baseline = evaluator.result("RANDOM")

    print()
    print(render_table5(baseline, rows))

    pgm = {name: row.result.mean_extra_program_us for name, row in rows.items()}
    ers = {name: row.result.mean_extra_erase_us for name, row in rows.items()}

    # Program: optimal < {QSTR-MED, STR-MED} < sequential < random.
    assert pgm["OPTIMAL(8)"] < pgm["QSTR-MED(4)"] < pgm["SEQUENTIAL"]
    assert pgm["OPTIMAL(8)"] < pgm["STR-MED(4)"] < pgm["SEQUENTIAL"]
    assert pgm["SEQUENTIAL"] < baseline.mean_extra_program_us
    # QSTR-MED is the practical twin of STR-MED: within ~3% of each other.
    assert abs(pgm["QSTR-MED(4)"] - pgm["STR-MED(4)"]) / pgm["STR-MED(4)"] < 0.03

    # Erase: similarity grouping collapses the spread; sequential barely moves it.
    assert ers["QSTR-MED(4)"] < baseline.mean_extra_erase_us * 0.85
    assert ers["OPTIMAL(8)"] < baseline.mean_extra_erase_us * 0.85
    assert ers["SEQUENTIAL"] > baseline.mean_extra_erase_us * 0.75

    # Magnitudes near the paper's bands.
    assert 10_000 < baseline.mean_extra_program_us < 17_000
    assert 30 < baseline.mean_extra_erase_us < 55
