"""Built-in rule families; importing this package registers every rule.

The ``deep_*`` modules register whole-program rules (run via
``repro lint --deep``); the rest are per-file shallow rules.
"""

from __future__ import annotations

from repro.lint.rules import (
    deep_det,
    deep_proc,
    deep_rng,
    determinism,
    layering,
    numeric,
    obs,
    rng,
)

__all__ = [
    "deep_det",
    "deep_proc",
    "deep_rng",
    "determinism",
    "layering",
    "numeric",
    "obs",
    "rng",
]
