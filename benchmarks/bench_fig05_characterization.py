"""Figure 5: tBERS per block (top) and tPROG per word-line (bottom).

Reproduces the characterization plots: erase latency varies block to block
and chip to chip; word-line program-latency *trends* track closely within a
chip but diverge across chips once the common layer shape is removed.
"""

import numpy as np

from repro.analysis import fig5_characterization
from repro.analysis.figures import render_series_block


def test_fig05_characterization(benchmark, sim_config):
    # Two chips of the shared testbed config on a fresh stack, so what the
    # other benches probed in the shared pools cannot leak into Figure 5.
    series = benchmark.pedantic(
        lambda: fig5_characterization(sim_config.with_(chips=2), curve_blocks=(0, 1, 2, 3)),
        rounds=1,
        iterations=1,
    )

    # -- Figure 5 (top): erase latency per block, per chip/plane ------------
    erase_display = {
        f"chip{chip} plane{plane}": [v for _, v in values]
        for (chip, plane), values in sorted(series.erase_by_chip_plane.items())
        if plane < 2
    }
    print()
    print(render_series_block("Fig 5 (top) tBERS per block [us]", erase_display))

    # -- Figure 5 (bottom): per-WL program latency curves ---------------------
    curve_display = {
        f"chip{chip} blk{block}": curve
        for (chip, block), curve in sorted(series.program_curves.items())
    }
    print(render_series_block("Fig 5 (bottom) tPROG per word-line [us]", curve_display))

    # Shape assertions: variation exists, and the within-chip residual
    # similarity beats the cross-chip one (the paper's central observation).
    all_erase = [v for values in series.erase_by_chip_plane.values() for _, v in values]
    assert max(all_erase) - min(all_erase) > 10.0

    curves = series.program_curves
    common = np.mean(list(curves.values()), axis=0)

    def residual_corr(a, b):
        x, y = curves[a] - common, curves[b] - common
        return float(np.corrcoef(x, y)[0, 1])

    within = np.mean([residual_corr((0, 0), (0, b)) for b in (1, 2, 3)]
                     + [residual_corr((1, 0), (1, b)) for b in (1, 2, 3)])
    across = np.mean([residual_corr((0, b), (1, b)) for b in (0, 1, 2, 3)])
    print(f"residual WL-trend correlation: within-chip {within:.3f} vs cross-chip {across:.3f}")
    assert within > across
