"""Section VI-B2: computing overhead — combination checks per superblock.

Paper: STR-MED at window 4 over four chips scores 1,536 block-pair
similarity checks per superblock; QSTR-MED needs 12 — a 99.22% reduction.
This bench confirms the analytic counts, the instrumented runtime counts,
and times the actual distance computations to show the wall-clock effect.
"""

from repro.analysis.tables import render_table
from repro.assembly import StrMedianAssembler
from repro.core import (
    QstrMedAssembler,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)


def test_overhead_compute(benchmark, pools):
    def run():
        qstr = QstrMedAssembler(4)
        qstr.assemble(pools)
        return qstr

    qstr = benchmark.pedantic(run, rounds=1, iterations=1)

    str_med = StrMedianAssembler(4)
    str_med.assemble(pools)

    superblocks = min(len(p) for p in pools)
    analytic_str = str_med_pair_checks(4, len(pools))
    analytic_qstr = qstr_med_pair_checks(len(pools), 4)
    reduction = overhead_reduction_pct(4, len(pools), 4)

    print()
    print(
        render_table(
            ["Scheme", "pair checks / SB (analytic)", "measured distance work"],
            [
                ["STR-MED(4)", f"{analytic_str:,}", f"{str_med.pair_checks:,} matrix entries"],
                ["QSTR-MED(4)", f"{analytic_qstr:,}", f"{qstr.pair_checks:,} XOR-popcounts"],
            ],
        )
    )
    print(f"analytic reduction: {reduction:.2f}% (paper 99.22%)")

    assert analytic_str == 1536
    assert analytic_qstr == 12
    assert abs(reduction - 99.22) < 0.01
    # Instrumented: QSTR-MED averages ~12 pair checks per superblock (less
    # in the final rounds when catalogs run short).
    assert qstr.pair_checks <= superblocks * 12
    assert qstr.pair_checks >= superblocks * 12 - 40
    # And it does far less distance work than the windowed search.
    assert qstr.pair_checks * 20 < str_med.pair_checks * 16  # matrices are WxW
