"""Analysis: experiment drivers, table renderers, figure series.

The package exports the table and figure drivers of
:mod:`repro.analysis.experiments`.  The renderers (:mod:`repro.analysis.tables`,
:mod:`repro.analysis.figures`) and the sensitivity sweeps
(:mod:`repro.analysis.sensitivity`) serve the CLI, the benches and the
report generator, and are imported by module path.
"""

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

__all__ = [
    "run_methods",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
    "TABLE5_METHODS",
    "fig5_characterization",
    "fig6_random_extra",
    "fig13_distributions",
    "fig14_per_superblock",
]
