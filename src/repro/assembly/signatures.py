"""Block similarity signatures (Section IV-A, directions 5-8).

Each direction condenses a block's measured per-(layer, string) program
latencies into a comparable vector; the distance between two blocks is the
count of positions where their vectors disagree (Equation 1):

* **LWL rank** — rank all ``layers*strings`` logical word-lines by latency
  (ranks 0..383 on the paper's chip);
* **PWL rank** — rank the layers independently within each string
  (ranks 0..95 per string);
* **STR rank** — rank the strings within each layer (ranks 0..3);
* **STR median** — 1 bit per (layer, string): the fastest half of the
  strings on a layer get 0, the rest get 1.  Ties are broken "sequentially"
  (first-come), exactly as the paper's gathering process specifies.

Signatures are plain ``uint16`` numpy arrays of length ``layers*strings`` so
one ``!=``-and-sum computes Equation 1.  Each direction has one kernel over
``(..., layers, strings)`` latency arrays — :func:`lwl_ranks`,
:func:`pwl_ranks`, :func:`str_ranks`, :func:`str_median_bits` — that the
per-block ``*_signature`` builders, the window search
(:mod:`repro.assembly.rank`, one call per lane of a chunk of windows) and
the batch twins in :mod:`repro.kernels.signatures` all call.  The LWL and
PWL ranks sort; the STR ranks count string pairs.  `repro.core.eigen` also
packs the STR-median bits into a :class:`BitVector` for the QSTR-MED XOR
path.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.characterization.datasets import BlockMeasurement


def _stable_ranks(values: np.ndarray, axis: int) -> np.ndarray:
    """Ranks along ``axis`` ascending by value; ties keep original order."""
    order = np.argsort(values, axis=axis, kind="stable")
    positions = [1] * order.ndim
    positions[axis] = order.shape[axis]
    ranks = np.empty(order.shape, dtype=np.uint16)
    np.put_along_axis(
        ranks,
        order,
        np.arange(order.shape[axis], dtype=np.uint16).reshape(positions),
        axis=axis,
    )
    return ranks


def lwl_ranks(latencies: np.ndarray) -> np.ndarray:
    """Ranks of all logical word-lines of a block by latency (direction 5).

    ``latencies`` has shape ``(..., layers, strings)``: one block's matrix
    or a stack of them.  Each block's ``layers*strings`` LWLs, in
    programming order, are ranked together; returns ``uint16`` ranks of
    the input's shape.
    """
    values = np.asarray(latencies, dtype=float)
    *lead, layers, strings = values.shape
    flat = values.reshape(*lead, layers * strings)
    return _stable_ranks(flat, axis=-1).reshape(values.shape)


def pwl_ranks(latencies: np.ndarray) -> np.ndarray:
    """Per-string ranks of the layers (direction 6), shape ``(..., layers, strings)``."""
    return _stable_ranks(np.asarray(latencies, dtype=float), axis=-2)


def str_ranks(latencies: np.ndarray) -> np.ndarray:
    """Per-layer ranks of the strings (direction 7), shape ``(..., layers, strings)``.

    The ranks a stable argsort along the strings axis gives NaN-free
    latencies, counted pair by pair: string ``j`` starts at rank ``j``, and
    for each string pair ``i < j`` one ``<`` over the whole stack moves
    ``j`` ahead of ``i`` only when ``j`` is strictly faster (a tie keeps
    the lower index first).  On a handful of strings these few whole-stack
    comparisons cost less than a sort of every layer.
    """
    values = np.asarray(latencies, dtype=float)
    strings = values.shape[-1]
    # one contiguous row per string, over every layer of the stack
    columns = values.reshape(math.prod(values.shape[:-1]), strings).T.copy()
    ranks = np.empty(columns.shape, dtype=np.uint16)
    ranks[...] = np.arange(strings, dtype=np.uint16)[:, None]
    for i in range(strings):
        for j in range(i + 1, strings):
            ahead = columns[j] < columns[i]
            ranks[i] += ahead
            ranks[j] -= ahead
    return ranks.T.reshape(values.shape)


def lwl_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Ranks of all logical word-lines by program latency (direction 5)."""
    return lwl_ranks(measurement.wl_latencies_us).reshape(-1)


def pwl_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Per-string ranks of the physical word-line layers (direction 6).

    Entry order matches programming order (layer-major, string minor) so the
    vector aligns position-wise with the other signatures.
    """
    return pwl_ranks(measurement.wl_latencies_us).reshape(-1)


def str_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Per-layer ranks of the strings (direction 7): values 0..strings-1."""
    return str_ranks(measurement.wl_latencies_us).reshape(-1)


def str_median_bits(
    latencies: np.ndarray, fast_slots: Optional[int] = None
) -> np.ndarray:
    """STR-median speed bits along the last (strings) axis.

    ``latencies`` has shape ``(..., strings)``: one layer, a block's
    ``(layers, strings)`` matrix, or a ``(k, layers, strings)`` stack.  On
    each layer the ``fast_slots`` fastest strings (default: half) get bit
    0 and the rest bit 1; ties go to the lower string index, the paper's
    first-come rule.  Returns ``uint16`` bits of the input's shape.

    This is the one STR-median kernel: the direction-8 signature and window
    search, the QSTR-MED eigen sequence (:mod:`repro.core.eigen`) and the
    batch twin (:mod:`repro.kernels.signatures`) all call it.
    """
    values = np.asarray(latencies, dtype=float)
    strings = values.shape[-1]
    if fast_slots is None:
        fast_slots = strings // 2
    if not 0 <= fast_slots <= strings:
        raise ValueError(f"fast_slots {fast_slots} out of range for {strings} strings")
    # A string's rank on its layer is the inverse of the stable sort order;
    # the first ``fast_slots`` ranks are the fast slots.
    order = np.argsort(values, axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1)
    return (ranks >= fast_slots).astype(np.uint16)


def str_median_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Per-layer speed bits (direction 8): fastest half of strings -> 0.

    With four strings, the two fastest get bit 0 and the two slowest bit 1;
    ties are resolved first-come (lower string index wins a fast slot).
    """
    return str_median_bits(measurement.wl_latencies_us).reshape(-1)


SIGNATURE_BUILDERS: Dict[str, Callable[[BlockMeasurement], np.ndarray]] = {
    "lwl_rank": lwl_rank_signature,
    "pwl_rank": pwl_rank_signature,
    "str_rank": str_rank_signature,
    "str_median": str_median_signature,
}


def signature_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Equation 1 for one block pair: positions where the signatures differ."""
    if a.shape != b.shape:
        raise ValueError(f"signature shapes disagree: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
