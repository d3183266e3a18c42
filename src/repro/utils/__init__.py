"""Shared low-level utilities: bit vectors, RNG discipline, sorted lists, stats.

These helpers are deliberately dependency-light; everything above them
(`repro.nand`, `repro.assembly`, `repro.core`, ...) builds on this layer.
"""

from repro.utils.rng import derive_seed

__all__ = ["derive_seed"]
