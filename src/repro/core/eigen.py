"""Eigen-sequence generation (Section V-B, Figure 9).

QSTR-MED condenses each block's word-line program latencies into one bit per
(physical word-line layer, string): after all strings of a layer have been
programmed, the fastest half of the strings (two of four) are marked 0 and
the rest 1; ties are resolved "sequentially" — the first-programmed string
wins a fast slot.  Joining the per-layer bit groups in programming order
yields the block's *eigen sequence*, and the similarity distance between two
blocks is ``popcount(eigen_a XOR eigen_b)``.

The bits come from the one STR-median kernel,
:func:`repro.assembly.signatures.str_median_bits`; this module packs them
into :class:`BitVector` form for the QSTR-MED XOR path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.assembly.signatures import str_median_bits
from repro.nand.geometry import NandGeometry
from repro.utils.bitvec import BitVector


def layer_eigen_bits(
    latencies: Sequence[float], fast_slots: Optional[int] = None
) -> BitVector:
    """Speed bits of one physical word-line layer.

    ``latencies`` holds the layer's per-string program latencies in string
    order.  The ``fast_slots`` fastest strings (default: half) get bit 0,
    the rest bit 1; ties go to the lower string index.
    """
    values = np.asarray(latencies, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("latencies must be a non-empty 1-D sequence")
    # a handful of bits: the list constructor beats packing here, and the
    # gathering unit calls this once per programmed layer
    return BitVector(str_median_bits(values, fast_slots).tolist())


def eigen_sequence(
    wl_latencies: np.ndarray, fast_slots: Optional[int] = None
) -> BitVector:
    """Eigen sequence of a fully-programmed block.

    ``wl_latencies`` is the (layers, strings) tPROG matrix; the result joins
    the per-layer bit groups in layer order (bit index = lwl index).
    """
    matrix = np.asarray(wl_latencies, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("wl_latencies must be (layers, strings)")
    if matrix.shape[0] and not matrix.shape[1]:
        raise ValueError("wl_latencies needs at least one string per layer")
    bits = str_median_bits(matrix, fast_slots).reshape(-1)
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return BitVector(length=bits.size, value=int.from_bytes(packed.tobytes(), "little"))


def eigen_distance(a: BitVector, b: BitVector) -> int:
    """QSTR-MED similarity distance: popcount of the XOR (Figure 11)."""
    return a.hamming_distance(b)


def eigen_bits_for_geometry(geometry: NandGeometry) -> int:
    """Length of a block's eigen sequence (one bit per LWL)."""
    return geometry.lwls_per_block
