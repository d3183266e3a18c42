"""Figure 14: per-superblock improvement — STR-MED vs QSTR-MED.

The paper's point: the two schemes' capabilities are equivalent superblock
by superblock; QSTR-MED is simply the cheap one.
"""

import numpy as np

from repro.api import (
    cumulative_mean,
    fig14_per_superblock,
    improvement_series,
    render_series_block,
)


def test_fig14_all_superblocks(benchmark, evaluator):
    series = benchmark.pedantic(
        lambda: fig14_per_superblock(evaluator), rounds=1, iterations=1
    )

    str_trend = cumulative_mean(series.str_med)
    qstr_trend = cumulative_mean(series.qstr_med)
    print()
    print(
        render_series_block(
            "Fig 14 running-mean extra PGM latency per superblock [us]",
            {
                "STR-MED(4)": str_trend,
                "QSTR-MED(4)": qstr_trend,
                "RANDOM": cumulative_mean(series.random),
            },
        )
    )

    # The trends mirror each other: final means within 3%, and the two
    # per-superblock distributions have the same shape (quantile-quantile
    # correlation — the running means themselves flatten, so correlating
    # them directly would be noise).
    assert abs(str_trend[-1] - qstr_trend[-1]) / str_trend[-1] < 0.03
    qq = float(
        np.corrcoef(np.sort(series.str_med), np.sort(series.qstr_med))[0, 1]
    )
    print(f"quantile-quantile correlation STR-MED vs QSTR-MED: {qq:.3f}")
    assert qq > 0.95

    # Both improve the majority of superblocks over random.
    qstr_imp = improvement_series(series.random, series.qstr_med)
    assert np.mean(qstr_imp > 0) > 0.6
