"""On-demand QSTR-MED superblock assembly (Section V-C, Figures 10-11).

Where STR-MED enumerates every window combination (1,536 distance checks at
window 4 over four chips), QSTR-MED anchors on a single *reference block* —
the globally fastest (or slowest) free block across all lanes — and only
compares that reference against the top-``candidate_depth`` candidates of
each other lane: 12 pair checks for the same configuration, a 99.22%
reduction.  The pair check itself is popcount(XOR) on the eigen sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.catalog import BlockCatalog
from repro.core.records import BlockRecord, closest_candidate


class SpeedClass(Enum):
    """What kind of superblock the caller wants (Section V-D routing)."""

    FAST = "fast"
    SLOW = "slow"


class AssemblyError(Exception):
    """Not enough free blocks to assemble a superblock."""


class MemberChooser(Protocol):
    """Structural hook for pluggable member choice (see ``repro.policy``).

    Core stays below the policy layer, so the assembler only knows this
    positional shape; :class:`repro.policy.base.AssemblyPolicy` provides
    the matching ``choose_member`` adapter.
    """

    def choose_member(
        self,
        speed_class: SpeedClass,
        reference: BlockRecord,
        candidates: Tuple[BlockRecord, ...],
    ) -> BlockRecord:
        """Pick one of ``candidates`` to pair with ``reference``."""
        ...


@dataclass(frozen=True)
class SuperblockChoice:
    """The outcome of one on-demand assembly."""

    speed_class: SpeedClass
    members: Tuple[BlockRecord, ...]
    reference_lane: int
    pair_checks: int

    @property
    def lanes(self) -> Tuple[int, ...]:
        return tuple(record.lane for record in self.members)

    def member_for_lane(self, lane: int) -> BlockRecord:
        for record in self.members:
            if record.lane == lane:
                return record
        raise KeyError(f"no member for lane {lane}")


class OnDemandAssembler:
    """Reference-anchored similarity assembly over per-lane catalogs."""

    def __init__(
        self,
        catalogs: Sequence[BlockCatalog],
        candidate_depth: int = 4,
        chooser: Optional[MemberChooser] = None,
    ) -> None:
        if len(catalogs) < 2:
            raise ValueError("need at least two lanes")
        lanes = [catalog.lane for catalog in catalogs]
        if len(set(lanes)) != len(lanes):
            raise ValueError(f"duplicate lanes: {lanes}")
        if candidate_depth < 1:
            raise ValueError("candidate_depth must be >= 1")
        self._catalogs: Dict[int, BlockCatalog] = {c.lane: c for c in catalogs}
        self.candidate_depth = candidate_depth
        #: pluggable member choice; None runs the eigen pair check itself
        self.chooser = chooser
        #: cumulative eigen pair checks (the scheme's computing-overhead metric)
        self.total_pair_checks = 0
        #: superblocks assembled so far
        self.assembled_count = 0

    @property
    def catalogs(self) -> List[BlockCatalog]:
        return list(self._catalogs.values())

    def can_assemble(self) -> bool:
        """True when every lane still has at least one free block."""
        return all(len(catalog) > 0 for catalog in self._catalogs.values())

    def _pick_reference(self, speed_class: SpeedClass) -> BlockRecord:
        best: Optional[BlockRecord] = None
        for catalog in self._catalogs.values():
            extreme = (
                catalog.fastest() if speed_class is SpeedClass.FAST else catalog.slowest()
            )
            if extreme is None:
                raise AssemblyError(f"lane {catalog.lane} has no free blocks")
            if best is None:
                best = extreme
            elif speed_class is SpeedClass.FAST and extreme.pgm_total_us < best.pgm_total_us:
                best = extreme
            elif speed_class is SpeedClass.SLOW and extreme.pgm_total_us > best.pgm_total_us:
                best = extreme
        assert best is not None
        return best

    def assemble(self, speed_class: SpeedClass = SpeedClass.FAST) -> SuperblockChoice:
        """Assemble one superblock and consume its blocks from the catalogs.

        FAST: the reference is the globally fastest free block; every other
        lane contributes its minimum-eigen-distance block among its
        ``candidate_depth`` fastest.  SLOW mirrors this from the tails.
        """
        if not self.can_assemble():
            raise AssemblyError("at least one lane has no free blocks")
        reference = self._pick_reference(speed_class)
        members = [reference]
        pair_checks = 0
        for catalog in self._catalogs.values():
            if catalog.lane == reference.lane:
                continue
            if speed_class is SpeedClass.FAST:
                candidates = catalog.head_candidates(self.candidate_depth)
            else:
                candidates = catalog.tail_candidates(self.candidate_depth)
            if self.chooser is not None:
                best_record = self.chooser.choose_member(
                    speed_class, reference, tuple(candidates)
                )
            else:
                best_record = closest_candidate(reference, candidates)
            pair_checks += len(candidates)
            members.append(best_record)
        for record in members:
            self._catalogs[record.lane].remove(record)
        self.total_pair_checks += pair_checks
        self.assembled_count += 1
        return SuperblockChoice(
            speed_class=speed_class,
            members=tuple(members),
            reference_lane=reference.lane,
            pair_checks=pair_checks,
        )

    def release(self, records: Sequence[BlockRecord]) -> None:
        """Return blocks to their catalogs (e.g. after a superblock erase)."""
        for record in records:
            self._catalogs[record.lane].add(record)
