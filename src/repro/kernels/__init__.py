"""Vectorized batch kernels for the simulator's hot paths.

Every kernel here is the struct-of-arrays twin of a scalar reference
implementation that lives in its home layer (``assembly.signatures``,
``nand.variation``, ``nand.reliability``, ``ftl.mapping``).  The scalar
path stays the reference; the vector path must agree with it *exactly*
(bit-for-bit on floats, element-for-element on ints) — the equivalence
contract DESIGN.md §13 spells out and ``tests/test_kernels_differential.py``
enforces.

The :mod:`repro.kernels.engine` module composes the kernels into the
``backend="vector"`` simulation engine (:class:`VectorFtl`,
:class:`VectorSsd`) that ``build_stack`` swaps in behind
``SimConfig.backend``.
"""

from repro.core.eigen import eigen_bitvectors, pack_eigen_bits
from repro.core.gathering import block_program_totals
from repro.kernels.engine import VectorFtl, VectorSsd
from repro.kernels.mapping import ArrayPageMapper
from repro.kernels.reliability import EccBatchResult, ecc_read_batch, rber_batch
from repro.kernels.signatures import (
    batch_lwl_rank,
    batch_pwl_rank,
    batch_str_median,
    batch_str_rank,
    eigen_distance_matrix,
    signature_distance_matrix,
)
from repro.kernels.variation import (
    SuperwlStats,
    batch_erase_latencies,
    block_latency_stack,
    superwl_stats,
)
from repro.kernels.workload import fill_request_count, sequential_fill_prefix

BATCH_SIGNATURE_BUILDERS = {
    "lwl_rank": batch_lwl_rank,
    "pwl_rank": batch_pwl_rank,
    "str_rank": batch_str_rank,
    "str_median": batch_str_median,
}

__all__ = [
    "ArrayPageMapper",
    "BATCH_SIGNATURE_BUILDERS",
    "EccBatchResult",
    "SuperwlStats",
    "VectorFtl",
    "VectorSsd",
    "batch_erase_latencies",
    "batch_lwl_rank",
    "batch_pwl_rank",
    "batch_str_median",
    "batch_str_rank",
    "block_latency_stack",
    "block_program_totals",
    "ecc_read_batch",
    "eigen_bitvectors",
    "eigen_distance_matrix",
    "fill_request_count",
    "pack_eigen_bits",
    "rber_batch",
    "sequential_fill_prefix",
    "signature_distance_matrix",
    "superwl_stats",
]
