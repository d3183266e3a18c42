"""Runtime similarity-data gathering (Section V-B, Figure 9).

The gathering unit rides along normal program operations: the FTL reports
every word-line's program latency as it happens.  Per *open* block the unit
keeps a one-layer latency staging buffer and the running block-latency sum;
when a layer's last string completes, the layer collapses to its eigen bits,
and when the block's last word-line completes, the finished
:class:`BlockRecord` is handed to the updater callback (normally the per-chip
sorted catalog).  Only open blocks consume staging memory — the paper's
point that the scheme needs no per-block latency tables.

:func:`gather_stack` computes the same two quantities for a whole stack of
fully measured blocks at once; :meth:`GatheringUnit.gather_measurement`
is its one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.eigen import eigen_bitvectors, layer_eigen_bits, pack_eigen_bits
from repro.core.records import BlockRecord
from repro.nand.geometry import NandGeometry
from repro.utils.bitvec import BitVector


class GatheringError(Exception):
    """Out-of-order or duplicate latency reports."""


@dataclass
class _OpenBlock:
    lane: int
    plane: int
    block: int
    pe_cycles: int
    next_lwl: int = 0
    latency_sum: float = 0.0
    layer_buffer: List[float] = field(default_factory=list)
    eigen_parts: List[BitVector] = field(default_factory=list)


class GatheringUnit:
    """Accumulates similarity metadata for the blocks currently being written."""

    def __init__(
        self,
        geometry: NandGeometry,
        on_block_complete: Optional[Callable[[BlockRecord], None]] = None,
    ) -> None:
        self._geometry = geometry
        self._on_block_complete = on_block_complete
        self._open: Dict[Tuple[int, int, int], _OpenBlock] = {}
        #: finished records (also delivered via the callback)
        self.completed: List[BlockRecord] = []

    # -- block lifecycle -----------------------------------------------------

    def open_block(self, lane: int, plane: int, block: int, pe_cycles: int = 0) -> None:
        """Start gathering for a freshly-erased block."""
        key = (lane, plane, block)
        if key in self._open:
            raise GatheringError(f"block {key} already open")
        self._open[key] = _OpenBlock(lane=lane, plane=plane, block=block, pe_cycles=pe_cycles)

    def abandon_block(self, lane: int, plane: int, block: int) -> None:
        """Drop a partially-gathered block (e.g. its superblock was erased)."""
        self._open.pop((lane, plane, block), None)

    def is_open(self, lane: int, plane: int, block: int) -> bool:
        return (lane, plane, block) in self._open

    @property
    def open_count(self) -> int:
        return len(self._open)

    # -- latency reports -------------------------------------------------------

    def report(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> Optional[BlockRecord]:
        """Feed one word-line's program latency.

        Word-lines must arrive in programming order.  Returns the finished
        :class:`BlockRecord` when this report completes the block, else None.
        """
        key = (lane, plane, block)
        state = self._open.get(key)
        if state is None:
            raise GatheringError(f"block {key} is not open for gathering")
        if lwl != state.next_lwl:
            raise GatheringError(
                f"block {key}: expected LWL {state.next_lwl}, got {lwl}"
            )
        geometry = self._geometry
        state.next_lwl += 1
        state.latency_sum += latency_us
        state.layer_buffer.append(latency_us)
        if len(state.layer_buffer) == geometry.strings_per_layer:
            state.eigen_parts.append(layer_eigen_bits(state.layer_buffer))
            state.layer_buffer = []
        if state.next_lwl == geometry.lwls_per_block:
            record = BlockRecord(
                lane=state.lane,
                plane=state.plane,
                block=state.block,
                pgm_total_us=state.latency_sum,
                eigen=BitVector.concat(state.eigen_parts),
                pe_cycles=state.pe_cycles,
            )
            del self._open[key]
            self.completed.append(record)
            if self._on_block_complete is not None:
                self._on_block_complete(record)
            return record
        return None

    def complete_block(self, record: BlockRecord) -> None:
        """Deliver a whole block's finished record in one step.

        :meth:`gather_measurement` and the vector backend's seal-time bulk
        gathering compute a block's latency sum and eigen bits in one pass
        instead of feeding word-lines one by one; this closes the open block
        with that record.  Only a *fresh* open block (no word-lines
        reported) may be completed this way — mixing per-word-line reports
        with a bulk record would double count.
        """
        key = (record.lane, record.plane, record.block)
        state = self._open.get(key)
        if state is None:
            raise GatheringError(f"block {key} is not open for gathering")
        if state.next_lwl != 0:
            raise GatheringError(
                f"block {key} already has {state.next_lwl} word-line reports"
            )
        del self._open[key]
        self.completed.append(record)
        if self._on_block_complete is not None:
            self._on_block_complete(record)

    def gather_measurement(
        self, lane: int, plane: int, block: int, wl_latencies: np.ndarray, pe_cycles: int = 0
    ) -> BlockRecord:
        """Run a whole measured ``(layers, strings)`` block through the unit.

        Builds in one pass (:func:`gather_stack` on a stack of one) the
        record that :meth:`open_block` plus one :meth:`report` per
        word-line in LWL order would produce.
        """
        geometry = self._geometry
        matrix = np.asarray(wl_latencies, dtype=float)
        shape = (geometry.layers_per_block, geometry.strings_per_layer)
        if matrix.shape != shape:
            raise ValueError(
                f"block {(lane, plane, block)}: latency matrix {matrix.shape}, "
                f"geometry needs {shape}"
            )
        self.open_block(lane, plane, block, pe_cycles)
        totals, eigens = gather_stack(matrix[None])
        record = BlockRecord(
            lane=lane,
            plane=plane,
            block=block,
            pgm_total_us=float(totals[0]),
            eigen=eigens[0],
            pe_cycles=pe_cycles,
        )
        self.complete_block(record)
        return record

    # -- footprint accounting (Section V-D1) ----------------------------------------

    def staging_bytes(self) -> int:
        """Staging memory for the currently open blocks.

        Per open block: the running sum (8 B float), one layer's latency
        buffer (8 B per string), and the eigen bits gathered so far.
        """
        geometry = self._geometry
        total = 0
        for state in self._open.values():
            eigen_bits = len(state.eigen_parts) * geometry.strings_per_layer
            total += 8 + 8 * geometry.strings_per_layer + (eigen_bits + 7) // 8
        return total


def block_program_totals(member_latencies: np.ndarray) -> np.ndarray:
    """Program totals of a ``(members, lwls)`` table of blocks' latencies, µs.

    Row ``i`` summed as the unit's running ``latency_sum += latency_us``
    adds it in LWL order: ``np.cumsum`` is the same strict left fold,
    whereas ``np.sum`` pairs operands differently and drifts in the last
    ulp.
    """
    table = np.asarray(member_latencies, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"expected a (members, lwls) table, got {table.shape}")
    if table.shape[1] == 0:
        return np.zeros(table.shape[0])
    return np.cumsum(table, axis=1)[:, -1]


def gather_stack(latencies: np.ndarray) -> Tuple[np.ndarray, List[BitVector]]:
    """Program totals and eigen sequences of a ``(k, layers, strings)`` stack.

    Block ``i``'s pair equals what :meth:`GatheringUnit.report` gathers
    from its word-lines fed one by one in LWL order, bit for bit, from one
    ``np.cumsum`` and one STR-median kernel call over the whole stack.
    """
    stack = np.asarray(latencies, dtype=float)
    packed = pack_eigen_bits(stack)
    k, layers, strings = stack.shape
    lwls = layers * strings
    return block_program_totals(stack.reshape(k, lwls)), eigen_bitvectors(packed, lwls)
