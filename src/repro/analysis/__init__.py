"""Analysis: experiment drivers, table renderers, figure series."""

from repro.analysis.experiments import (
    TABLE1_METHODS,
    TABLE2_METHODS,
    TABLE5_METHODS,
    fig5_characterization,
    fig6_random_extra,
    fig13_distributions,
    fig14_per_superblock,
    run_methods,
)
from repro.analysis.sensitivity import knob_sweep, seed_sweep
from repro.analysis.figures import (
    cumulative_mean,
    improvement_series,
    render_histogram,
    render_series_block,
    sparkline,
)
from repro.analysis.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE5,
    render_table,
    render_table1,
    render_table2,
    render_table5,
)

__all__ = [
    "run_methods",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
    "TABLE5_METHODS",
    "fig5_characterization",
    "fig6_random_extra",
    "fig13_distributions",
    "fig14_per_superblock",
    "sparkline",
    "knob_sweep",
    "seed_sweep",
    "render_series_block",
    "render_histogram",
    "cumulative_mean",
    "improvement_series",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE5",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table5",
]
