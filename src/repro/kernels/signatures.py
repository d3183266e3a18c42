"""Batch twins of the block-signature kernels (Section IV-A).

Each function takes a *stack* of per-block latency matrices, shape
``(k, layers, strings)``, and returns all ``k`` signatures at once.  The
per-block builders in :mod:`repro.assembly.signatures` operate on one
:class:`~repro.characterization.datasets.BlockMeasurement`; these operate on
``measurement.wl_latencies_us`` arrays stacked along a new leading axis.

Equivalence contract (DESIGN.md §13): both call the same
``(..., layers, strings)`` kernels of :mod:`repro.assembly.signatures`
(the rank kernels, the STR-median bits), so batch row ``i`` equals the
signature of block ``i`` exactly, including tie-breaks (first-come, lower
index wins).

The eigen path packs with the gathering unit's own batch packing,
:func:`repro.core.eigen.pack_eigen_bits`: bit ``j`` of the packed bytes is
LWL ``j``, matching :class:`~repro.utils.bitvec.BitVector` indexing, so
pairwise similarity (Equation 1's XOR-popcount) reduces to
``np.bitwise_count`` over an XOR of the packed matrices.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.signatures import lwl_ranks, pwl_ranks, str_median_bits, str_ranks


def _as_stack(stacks: np.ndarray) -> np.ndarray:
    arr = np.asarray(stacks, dtype=float)
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (k, layers, strings) stack, got shape {arr.shape}"
        )
    return arr


def batch_lwl_rank(stacks: np.ndarray) -> np.ndarray:
    """All-LWL latency ranks per block (direction 5), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    return lwl_ranks(arr).reshape(k, layers * strings)


def batch_pwl_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-string layer ranks per block (direction 6), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    return pwl_ranks(arr).reshape(k, layers * strings)


def batch_str_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-layer string ranks per block (direction 7), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    return str_ranks(arr).reshape(k, layers * strings)


def batch_str_median(stacks: np.ndarray) -> np.ndarray:
    """Per-layer speed bits per block (direction 8), shape ``(k, L)``.

    The fastest ``strings // 2`` strings of each layer get bit 0, the rest
    bit 1; ties resolve first-come.  The bits come from the shared kernel
    :func:`repro.assembly.signatures.str_median_bits` applied to the whole
    stack at once.
    """
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    return str_median_bits(arr).reshape(k, layers * strings)


def signature_distance_matrix(signatures: np.ndarray) -> np.ndarray:
    """Pairwise Equation-1 distances of ``(k, L)`` stacked signatures.

    ``out[i, j]`` equals ``signature_distance(signatures[i], signatures[j])``
    from the scalar module; the matrix is symmetric with a zero diagonal.
    """
    sig = np.asarray(signatures)
    if sig.ndim != 2:
        raise ValueError(f"expected a (k, L) signature stack, got {sig.shape}")
    diff = sig[:, None, :] != sig[None, :, :]
    return diff.sum(axis=2, dtype=np.int64)


def eigen_distance_matrix(packed: np.ndarray) -> np.ndarray:
    """Pairwise XOR-popcount distances of packed eigen matrices.

    ``out[i, j]`` equals ``BitVector.hamming_distance`` of blocks ``i`` and
    ``j`` when both rows came from :func:`~repro.core.eigen.pack_eigen_bits`
    (padding bits are zero in every row, so they never contribute to the
    XOR).
    """
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a (k, nbytes) packed stack, got {arr.shape}")
    xor = arr[:, None, :] ^ arr[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
