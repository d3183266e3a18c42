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
one ``!=``-and-sum computes Equation 1.  The STR-median bits come from
:func:`str_median_bits`, the kernel `repro.core.eigen` also packs into a
:class:`BitVector` for the QSTR-MED XOR path.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.characterization.datasets import BlockMeasurement
from repro.perf.profiler import perf_scope


def _stable_ranks(values: np.ndarray) -> np.ndarray:
    """Rank positions ascending by value; ties keep original order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.uint16)
    ranks[order] = np.arange(len(values), dtype=np.uint16)
    return ranks


def lwl_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Ranks of all logical word-lines by program latency (direction 5)."""
    flat = measurement.lwl_latencies()
    return _stable_ranks(flat)


def pwl_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Per-string ranks of the physical word-line layers (direction 6).

    Entry order matches programming order (layer-major, string minor) so the
    vector aligns position-wise with the other signatures.
    """
    matrix = measurement.wl_latencies_us  # (layers, strings)
    layers, strings = matrix.shape
    order = np.argsort(matrix, axis=0, kind="stable")
    signature = np.empty((layers, strings), dtype=np.uint16)
    np.put_along_axis(
        signature, order, np.arange(layers, dtype=np.uint16)[:, None], axis=0
    )
    return signature.reshape(-1)


def str_rank_signature(measurement: BlockMeasurement) -> np.ndarray:
    """Per-layer ranks of the strings (direction 7): values 0..strings-1."""
    matrix = measurement.wl_latencies_us
    layers, strings = matrix.shape
    order = np.argsort(matrix, axis=1, kind="stable")
    signature = np.empty((layers, strings), dtype=np.uint16)
    np.put_along_axis(
        signature, order, np.arange(strings, dtype=np.uint16)[None, :], axis=1
    )
    return signature.reshape(-1)


def str_median_bits(
    latencies: np.ndarray, fast_slots: Optional[int] = None
) -> np.ndarray:
    """STR-median speed bits along the last (strings) axis.

    ``latencies`` has shape ``(..., strings)``: one layer, a block's
    ``(layers, strings)`` matrix, or a ``(k, layers, strings)`` stack.  On
    each layer the ``fast_slots`` fastest strings (default: half) get bit
    0 and the rest bit 1; ties go to the lower string index, the paper's
    first-come rule.  Returns ``uint16`` bits of the input's shape.

    This is the one STR-median kernel: the direction-8 signature, the
    QSTR-MED eigen sequence (:mod:`repro.core.eigen`) and the batch twin
    (:mod:`repro.kernels.signatures`) all call it.
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


class SignatureCache:
    """Memoizes signatures per measurement (keyed by identity)."""

    def __init__(self, builder: Callable[[BlockMeasurement], np.ndarray]) -> None:
        self._builder = builder
        self._cache: Dict[int, np.ndarray] = {}

    def get(self, measurement: BlockMeasurement) -> np.ndarray:
        key = id(measurement)
        cached = self._cache.get(key)
        if cached is None:
            # Only the miss path is profiled: the kernels themselves stay
            # pure (they are baselined VEC001 / vector-worklist entries).
            with perf_scope("assembly.signatures"):
                cached = self._builder(measurement)
            cached.setflags(write=False)
            self._cache[key] = cached
        return cached

    def stack(self, measurements: Iterable[BlockMeasurement]) -> np.ndarray:
        """Signatures of several measurements stacked as ``(k, L)``."""
        return np.stack([self.get(m) for m in measurements])
