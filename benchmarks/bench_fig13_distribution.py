"""Figure 13: distribution of per-superblock extra program latency.

A good organizer moves the distribution left: many superblocks end up with
short extra latency under QSTR-MED, while random's mass sits to the right.
"""

import numpy as np

from repro.analysis import fig13_distributions
from repro.analysis.figures import render_histogram
from repro.utils.stats import percentile

METHODS = ["QSTR-MED(4)", "OPTIMAL(8)"]


def test_fig13_distribution(benchmark, evaluator):
    def build():
        rows = evaluator.rows(METHODS)
        return rows, fig13_distributions(rows, evaluator.result("RANDOM"), bins=24)

    rows, histograms = benchmark.pedantic(build, rounds=1, iterations=1)

    print()
    for name in ["RANDOM"] + METHODS:
        print(render_histogram(f"Fig 13 extra PGM distribution — {name}", histograms[name], width=40))
        print()

    random_values = evaluator.result("RANDOM").extra_program_us
    qstr_values = rows["QSTR-MED(4)"].result.extra_program_us

    # The whole distribution shifts left: mean, median and p90 all drop.
    assert np.mean(qstr_values) < np.mean(random_values)
    assert percentile(qstr_values, 50) < percentile(random_values, 50)
    assert percentile(qstr_values, 90) < percentile(random_values, 90)
    # The histogram mode moves left too.
    assert histograms["QSTR-MED(4)"].mode_center() <= histograms["RANDOM"].mode_center()
