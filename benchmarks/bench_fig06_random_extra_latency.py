"""Figure 6: extra program/erase latency of randomly-organized superblocks.

The paper reports 13,084.17 µs average extra program latency and 41.71 µs
average extra erase latency when superblocks are grouped at random.
"""

from repro.analysis import fig6_random_extra
from repro.analysis.figures import render_series_block


def test_fig06_random_extra_latency(benchmark, evaluator):
    series = benchmark.pedantic(
        lambda: fig6_random_extra(evaluator), rounds=1, iterations=1
    )

    print()
    print(
        render_series_block(
            "Fig 6 extra latency of random superblocks (per superblock)",
            {
                "extra PGM [us]": series.extra_program_us,
                "extra ERS [us]": series.extra_erase_us,
            },
        )
    )
    print(
        f"mean extra PGM {series.mean_program:,.2f} us (paper 13,084.17); "
        f"mean extra ERS {series.mean_erase:,.2f} us (paper 41.71)"
    )

    # Shape: the calibrated model lands near the paper's random baselines.
    assert 10_000 < series.mean_program < 17_000
    assert 30 < series.mean_erase < 55
    # Extra latency is significant for essentially every random superblock.
    assert min(series.extra_program_us) > 1_000
