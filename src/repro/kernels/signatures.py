"""Batch twins of the block-signature kernels (Section IV-A).

Each function takes a *stack* of per-block latency matrices, shape
``(k, layers, strings)``, and returns all ``k`` signatures at once.  The
scalar references in :mod:`repro.assembly.signatures` operate on one
:class:`~repro.characterization.datasets.BlockMeasurement`; these operate on
``measurement.wl_latencies_us`` arrays stacked along a new leading axis.

Equivalence contract (DESIGN.md §13): ranks are pure integer permutations
derived from ``np.argsort(kind="stable")`` — the identical primitive the
scalar kernels use — so batch row ``i`` equals the scalar signature of block
``i`` exactly, including tie-breaks (first-come, lower index wins).

The eigen path packs the STR-median bits with
``np.packbits(bitorder="little")`` so bit ``j`` of the packed bytes is LWL
``j``, matching :class:`~repro.utils.bitvec.BitVector` indexing; pairwise
similarity (Equation 1's XOR-popcount) then reduces to
``np.bitwise_count`` over an XOR of the packed matrices.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.assembly.signatures import str_median_bits
from repro.utils.bitvec import BitVector


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
    flat = arr.reshape(k, layers * strings)
    order = np.argsort(flat, axis=1, kind="stable")
    ranks = np.empty((k, layers * strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(layers * strings, dtype=np.uint16)[None, :], axis=1
    )
    return ranks


def batch_pwl_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-string layer ranks per block (direction 6), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    order = np.argsort(arr, axis=1, kind="stable")
    ranks = np.empty((k, layers, strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(layers, dtype=np.uint16)[None, :, None], axis=1
    )
    return ranks.reshape(k, layers * strings)


def batch_str_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-layer string ranks per block (direction 7), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    order = np.argsort(arr, axis=2, kind="stable")
    ranks = np.empty((k, layers, strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(strings, dtype=np.uint16)[None, None, :], axis=2
    )
    return ranks.reshape(k, layers * strings)


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


def pack_eigen_bits(stacks: np.ndarray) -> np.ndarray:
    """STR-median eigen bits of every block, packed little-bit-first.

    Returns ``(k, ceil(L / 8))`` ``uint8``; bit ``j`` (LSB-first within each
    byte) is the eigen bit of LWL ``j``, i.e. ``BitVector`` bit ``j``.
    """
    bits = batch_str_median(stacks).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little")


def eigen_bitvectors(packed: np.ndarray, length: int) -> List[BitVector]:
    """Unpack rows of :func:`pack_eigen_bits` into :class:`BitVector` values."""
    return [
        BitVector(length=length, value=int.from_bytes(row.tobytes(), "little"))
        for row in np.asarray(packed, dtype=np.uint8)
    ]


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
    ``j`` when both rows came from :func:`pack_eigen_bits` (padding bits are
    zero in every row, so they never contribute to the XOR).
    """
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a (k, nbytes) packed stack, got {arr.shape}")
    xor = arr[:, None, :] ^ arr[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
