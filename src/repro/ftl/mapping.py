"""Logical-to-physical page mapping.

A plain page-level map: logical page number -> (superblock id, slot).  The
slot enumerates a superblock's pages in programming order; the superblock
table resolves a slot to (lane, LWL, page type).  The mapper also maintains
the reverse map and per-superblock valid counts the garbage collector needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.perf.profiler import profiled


class MappingError(Exception):
    """Invalid logical page or inconsistent map update."""


@dataclass(frozen=True)
class PhysicalSlot:
    """A page's physical location: superblock + slot in program order."""

    superblock_id: int
    slot: int


class PageMapper:
    """L2P map plus reverse lookups and validity accounting."""

    def __init__(self, logical_pages: int) -> None:
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
        self.logical_pages = logical_pages
        self._l2p: Dict[int, PhysicalSlot] = {}
        # (sb, slot) -> lpn for every *valid* page
        self._p2l: Dict[Tuple[int, int], int] = {}
        self._valid_count: Dict[int, int] = {}

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise MappingError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    # -- updates --------------------------------------------------------------

    @profiled("ftl.map")
    def map_page(self, lpn: int, location: PhysicalSlot) -> Optional[PhysicalSlot]:
        """Point ``lpn`` at a new physical slot; returns the stale slot if any."""
        self.check_lpn(lpn)
        stale = self._l2p.get(lpn)
        if stale is not None:
            self._invalidate_slot(stale)
        key = (location.superblock_id, location.slot)
        if key in self._p2l:
            raise MappingError(f"slot {key} already holds lpn {self._p2l[key]}")
        self._l2p[lpn] = location
        self._p2l[key] = lpn
        self._valid_count[location.superblock_id] = (
            self._valid_count.get(location.superblock_id, 0) + 1
        )
        return stale

    def unmap_page(self, lpn: int) -> Optional[PhysicalSlot]:
        """TRIM: drop the mapping; returns the now-invalid slot if one existed."""
        self.check_lpn(lpn)
        location = self._l2p.pop(lpn, None)
        if location is not None:
            self._invalidate_slot(location)
        return location

    def _invalidate_slot(self, location: PhysicalSlot) -> None:
        key = (location.superblock_id, location.slot)
        if key not in self._p2l:
            raise MappingError(f"slot {key} is not valid")
        del self._p2l[key]
        remaining = self._valid_count.get(location.superblock_id, 0) - 1
        if remaining < 0:
            raise MappingError(f"negative valid count for sb {location.superblock_id}")
        if remaining == 0:
            self._valid_count.pop(location.superblock_id, None)
        else:
            self._valid_count[location.superblock_id] = remaining

    def drop_superblock(self, superblock_id: int) -> None:
        """Forget accounting for an erased superblock (must hold no valid pages)."""
        if self._valid_count.get(superblock_id, 0) != 0:
            raise MappingError(
                f"superblock {superblock_id} still holds "
                f"{self._valid_count[superblock_id]} valid pages"
            )

    # -- lookups ---------------------------------------------------------------

    @profiled("ftl.map")
    def lookup(self, lpn: int) -> Optional[PhysicalSlot]:
        self.check_lpn(lpn)
        return self._l2p.get(lpn)

    def lpn_at(self, superblock_id: int, slot: int) -> Optional[int]:
        return self._p2l.get((superblock_id, slot))

    def valid_count(self, superblock_id: int) -> int:
        return self._valid_count.get(superblock_id, 0)

    def valid_slots(self, superblock_id: int, slot_count: int) -> List[Tuple[int, int]]:
        """``(slot, lpn)`` pairs still valid in a superblock, slot order.

        Probes the superblock's own ``slot_count`` slots rather than
        scanning the whole device's reverse map.
        """
        p2l = self._p2l
        pairs: List[Tuple[int, int]] = []
        for slot in range(slot_count):
            lpn = p2l.get((superblock_id, slot))
            if lpn is not None:
                pairs.append((slot, lpn))
        return pairs

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    def iter_mapped(self) -> Iterator[Tuple[int, PhysicalSlot]]:
        return iter(self._l2p.items())
