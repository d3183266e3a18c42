"""Array-backed L2P mapping tables (the vector backend's page mapper).

:class:`ArrayPageMapper` is a drop-in :class:`~repro.ftl.mapping.PageMapper`
replacement that stores the forward map as two dense ``int64`` numpy arrays
(superblock id and slot per LPN, ``-1`` = unmapped) and the reverse map as
one ``int64`` array per superblock — the struct-of-arrays layout full-device
FTL simulators use.  Every method matches the scalar mapper's observable
behavior exactly, including :class:`MappingError` messages; the one
documented divergence is :meth:`iter_mapped`, which yields in ascending LPN
order instead of insertion order (no production caller depends on the
order — the layout simply has no insertion history to replay).

:meth:`map_batch` is the vector engine's hot path: it maps one flush batch
of LPNs onto consecutive slots of a superblock with three array stores plus
a per-stale fix-up loop, instead of one ``map_page`` call per page.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ftl.mapping import MappingError, PageMapper, PhysicalSlot

_GROW_MIN = 64


class ArrayPageMapper(PageMapper):
    """L2P map over dense numpy arrays; see the module docstring."""

    def __init__(
        self, logical_pages: int, slots_per_superblock: Optional[int] = None
    ) -> None:
        super().__init__(logical_pages)
        if slots_per_superblock is not None and slots_per_superblock < 1:
            raise ValueError("slots_per_superblock must be >= 1")
        self._slots_hint = slots_per_superblock
        self._l2p_sb = np.full(logical_pages, -1, dtype=np.int64)
        self._l2p_slot = np.full(logical_pages, -1, dtype=np.int64)
        # sb id -> slot-indexed lpn array (-1 = invalid slot)
        self._sb_slots: Dict[int, np.ndarray] = {}
        self._mapped = 0
        # 1 + highest LPN ever mapped: ranges at or above it are fresh, so
        # the contiguous flush path can skip its stale scan (sequential
        # fills always land here); never lowered — a conservative bound
        self._hwm = 0

    # -- reverse-map storage ---------------------------------------------------

    def _slots_of(self, superblock_id: int, min_slots: int) -> np.ndarray:
        arr = self._sb_slots.get(superblock_id)
        if arr is None:
            size = self._slots_hint if self._slots_hint is not None else _GROW_MIN
            arr = np.full(max(size, min_slots), -1, dtype=np.int64)
            self._sb_slots[superblock_id] = arr
        elif len(arr) < min_slots:
            grown = np.full(max(min_slots, 2 * len(arr)), -1, dtype=np.int64)
            grown[: len(arr)] = arr
            arr = grown
            self._sb_slots[superblock_id] = arr
        return arr

    def _bump_valid(self, superblock_id: int, delta: int) -> None:
        remaining = self._valid_count.get(superblock_id, 0) + delta
        if remaining < 0:
            raise MappingError(f"negative valid count for sb {superblock_id}")
        if remaining == 0:
            self._valid_count.pop(superblock_id, None)
        else:
            self._valid_count[superblock_id] = remaining

    # -- updates --------------------------------------------------------------

    def map_page(self, lpn: int, location: PhysicalSlot) -> Optional[PhysicalSlot]:
        """Point ``lpn`` at a new physical slot; returns the stale slot if any."""
        self.check_lpn(lpn)
        stale: Optional[PhysicalSlot] = None
        stale_sb = int(self._l2p_sb[lpn])
        if stale_sb >= 0:
            stale = PhysicalSlot(stale_sb, int(self._l2p_slot[lpn]))
            self._invalidate_slot(stale)
        else:
            self._mapped += 1
        sb_id, slot = location.superblock_id, location.slot
        slots = self._slots_of(sb_id, slot + 1)
        if slots[slot] >= 0:
            key = (sb_id, slot)
            raise MappingError(f"slot {key} already holds lpn {int(slots[slot])}")
        self._l2p_sb[lpn] = sb_id
        self._l2p_slot[lpn] = slot
        slots[slot] = lpn
        if lpn >= self._hwm:
            self._hwm = lpn + 1
        self._bump_valid(sb_id, 1)
        return stale

    def map_batch(self, lpns: Sequence[int], superblock_id: int, first_slot: int) -> None:
        """Map ``lpns[i]`` to slot ``first_slot + i`` of one superblock.

        Exactly equivalent to ``map_page`` per page (stale copies of
        rewritten LPNs are invalidated), for batches of *distinct* LPNs on
        freshly claimed consecutive slots — the flush path's shape.
        """
        n = len(lpns)
        if n == 0:
            return
        idx = np.fromiter(lpns, dtype=np.int64, count=n)
        if ((idx < 0) | (idx >= self.logical_pages)).any():
            bad = int(idx[(idx < 0) | (idx >= self.logical_pages)][0])
            raise MappingError(
                f"lpn {bad} out of range [0, {self.logical_pages})"
            )
        slots = self._slots_of(superblock_id, first_slot + n)
        segment = slots[first_slot : first_slot + n]
        if (segment >= 0).any():
            offset = int(np.flatnonzero(segment >= 0)[0])
            key = (superblock_id, first_slot + offset)
            raise MappingError(
                f"slot {key} already holds lpn {int(segment[offset])}"
            )
        stale_sb = self._l2p_sb[idx]
        stale_positions = np.flatnonzero(stale_sb >= 0)
        for position in stale_positions:
            self._invalidate_slot(
                PhysicalSlot(
                    int(stale_sb[position]), int(self._l2p_slot[idx[position]])
                )
            )
        self._l2p_sb[idx] = superblock_id
        self._l2p_slot[idx] = first_slot + np.arange(n, dtype=np.int64)
        segment[:] = idx
        top = max(lpns)
        if top >= self._hwm:
            self._hwm = top + 1
        self._mapped += n - len(stale_positions)
        self._bump_valid(superblock_id, n)

    def map_superwl(
        self, lpns: Sequence[int], superblock_id: int, first_slot: int
    ) -> None:
        """:meth:`map_batch` minus re-validation — the flush inner loop.

        Preconditions the vector engine guarantees (and :meth:`map_batch`
        checks): every LPN already passed ``check_lpn``, the LPNs are
        distinct, and ``first_slot`` onward was freshly claimed from an open
        superblock so the target slots are empty.
        """
        n = len(lpns)
        idx = np.asarray(lpns, dtype=np.int64)
        slots = self._sb_slots.get(superblock_id)
        if slots is None or len(slots) < first_slot + n:
            slots = self._slots_of(superblock_id, first_slot + n)
        stale_sb = self._l2p_sb[idx]
        stale = 0
        if (stale_sb >= 0).any():
            for position in np.flatnonzero(stale_sb >= 0):
                self._invalidate_slot(
                    PhysicalSlot(
                        int(stale_sb[position]),
                        int(self._l2p_slot[idx[position]]),
                    )
                )
                stale += 1
        self._l2p_sb[idx] = superblock_id
        self._l2p_slot[idx] = np.arange(
            first_slot, first_slot + n, dtype=np.int64
        )
        slots[first_slot : first_slot + n] = idx
        top = max(lpns)
        if top >= self._hwm:
            self._hwm = top + 1
        self._mapped += n - stale
        self._bump_valid(superblock_id, n)

    def map_superwl_contig(
        self, first: int, n: int, superblock_id: int, first_slot: int
    ) -> None:
        """:meth:`map_superwl` for ``range(first, first + n)`` LPNs.

        Sequential fills produce contiguous flush queues, where slice
        stores beat fancy indexing; same preconditions as
        :meth:`map_superwl`.
        """
        slots = self._sb_slots.get(superblock_id)
        if slots is None or len(slots) < first_slot + n:
            slots = self._slots_of(superblock_id, first_slot + n)
        stale = 0
        if first < self._hwm:
            stale_sb = self._l2p_sb[first : first + n]
            if int(stale_sb.max()) >= 0:
                for offset in np.flatnonzero(stale_sb >= 0):
                    self._invalidate_slot(
                        PhysicalSlot(
                            int(stale_sb[offset]),
                            int(self._l2p_slot[first + offset]),
                        )
                    )
                    stale += 1
        if first + n > self._hwm:
            self._hwm = first + n
        self._l2p_sb[first : first + n] = superblock_id
        self._l2p_slot[first : first + n] = np.arange(
            first_slot, first_slot + n, dtype=np.int64
        )
        slots[first_slot : first_slot + n] = np.arange(
            first, first + n, dtype=np.int64
        )
        self._mapped += n - stale
        self._bump_valid(superblock_id, n)

    def unmap_page(self, lpn: int) -> Optional[PhysicalSlot]:
        """TRIM: drop the mapping; returns the now-invalid slot if one existed."""
        self.check_lpn(lpn)
        sb = int(self._l2p_sb[lpn])
        if sb < 0:
            return None
        location = PhysicalSlot(sb, int(self._l2p_slot[lpn]))
        self._invalidate_slot(location)
        self._l2p_sb[lpn] = -1
        self._l2p_slot[lpn] = -1
        self._mapped -= 1
        return location

    def _invalidate_slot(self, location: PhysicalSlot) -> None:
        slots = self._sb_slots.get(location.superblock_id)
        if (
            slots is None
            or location.slot >= len(slots)
            or slots[location.slot] < 0
        ):
            key = (location.superblock_id, location.slot)
            raise MappingError(f"slot {key} is not valid")
        slots[location.slot] = -1
        self._bump_valid(location.superblock_id, -1)

    def drop_superblock(self, superblock_id: int) -> None:
        """Forget accounting for an erased superblock (must hold no valid pages)."""
        if self._valid_count.get(superblock_id, 0) != 0:
            raise MappingError(
                f"superblock {superblock_id} still holds "
                f"{self._valid_count[superblock_id]} valid pages"
            )
        self._sb_slots.pop(superblock_id, None)

    # -- lookups ---------------------------------------------------------------

    def lookup(self, lpn: int) -> Optional[PhysicalSlot]:
        self.check_lpn(lpn)
        sb = int(self._l2p_sb[lpn])
        if sb < 0:
            return None
        return PhysicalSlot(sb, int(self._l2p_slot[lpn]))

    def lpn_at(self, superblock_id: int, slot: int) -> Optional[int]:
        slots = self._sb_slots.get(superblock_id)
        if slots is None or slot < 0 or slot >= len(slots) or slots[slot] < 0:
            return None
        return int(slots[slot])

    def valid_slots(self, superblock_id: int, slot_count: int) -> List[Tuple[int, int]]:
        """``(slot, lpn)`` pairs still valid in a superblock, slot order.

        ``slot_count`` is the scalar mapper's probe bound; this mapper keeps
        one slot array per superblock and scans that.
        """
        slots = self._sb_slots.get(superblock_id)
        if slots is None:
            return []
        valid = np.flatnonzero(slots >= 0)
        return [(int(slot), int(slots[slot])) for slot in valid]

    @property
    def mapped_pages(self) -> int:
        return self._mapped

    def iter_mapped(self) -> Iterator[Tuple[int, PhysicalSlot]]:
        """Mapped pages in ascending-LPN order (see the module docstring)."""
        for lpn in np.flatnonzero(self._l2p_sb >= 0):
            yield int(lpn), PhysicalSlot(
                int(self._l2p_sb[lpn]), int(self._l2p_slot[lpn])
            )
