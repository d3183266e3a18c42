"""Table II: STR-RANK under window sizes 8/6/4/2.

Paper: 18.27 / 18.05 / 17.42 / 15.02 % — larger windows help monotonically,
with diminishing returns above 4.
"""

from repro.analysis import TABLE2_METHODS
from repro.analysis.tables import render_table2


def test_table2_window_sizes(benchmark, evaluator):
    rows = benchmark.pedantic(
        lambda: evaluator.rows(TABLE2_METHODS), rounds=1, iterations=1
    )

    print()
    print(render_table2(rows))

    imp = [rows[name].improvement_pct for name in TABLE2_METHODS]  # 8, 6, 4, 2
    # monotone in window size
    assert imp[0] >= imp[1] >= imp[2] >= imp[3]
    # diminishing returns: the 2->4 step dominates the 4->8 step
    assert (imp[2] - imp[3]) > (imp[0] - imp[2]) * 0.5
    assert imp[3] > 5  # even window 2 clearly beats random
