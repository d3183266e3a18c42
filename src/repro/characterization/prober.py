"""Characterization prober: measures chips through the normal chip API.

This is the software equivalent of the paper's tester (SM2259XT controllers
plus chamber): it erases a block, programs every word-line, and records the
reported latencies.  It never peeks at the generative model — everything it
learns comes back from :class:`~repro.nand.chip.FlashChip` operations, the
same interface an FTL uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.characterization.datasets import BlockMeasurement, MeasurementSet
from repro.nand.chip import FlashChip
from repro.nand.errors import BadBlockError


@dataclass(frozen=True)
class ProbePlan:
    """What to probe: planes and a block range on each."""

    planes: Sequence[int]
    blocks: Sequence[int]


class Prober:
    """Collects block erase / word-line program latencies from one chip."""

    def __init__(self, chip: FlashChip) -> None:
        self._chip = chip
        self._geometry = chip.geometry

    @property
    def chip(self) -> FlashChip:
        return self._chip

    def probe_block(self, plane: int, block: int) -> BlockMeasurement:
        """Erase + fully program one block, recording every latency.

        A FAIL status from the erase or from a word-line program (an
        injected fault, or an offline plane) leaves the block without a
        complete measurement and raises :class:`BadBlockError` naming it.
        """
        chip = self._chip
        erase = chip.erase_block(plane, block)
        if not erase.ok:
            raise BadBlockError(
                f"chip {chip.chip_id} block p{plane}/b{block}: erase FAIL while probing"
            )
        programmed = chip.program_block(plane, block)
        if not programmed.ok:
            raise BadBlockError(
                f"chip {chip.chip_id} block p{plane}/b{block}: program FAIL at "
                f"LWL {chip.programmed_lwls(plane, block)} while probing"
            )
        # a read-only view of the chip's latency row, shaped per layer
        matrix = programmed.latencies_us.reshape(
            self._geometry.layers_per_block, self._geometry.strings_per_layer
        )
        return BlockMeasurement(
            chip_id=chip.chip_id,
            plane=plane,
            block=block,
            pe_cycles=chip.pe_cycles(plane, block),
            wl_latencies_us=matrix,
            erase_latency_us=erase.latency_us,
        )

    def try_probe_block(
        self, plane: int, block: int, target_pe: Optional[int] = None
    ) -> Optional[BlockMeasurement]:
        """Probe one block, or return None for a block that has to be skipped.

        The skip rule every probing loop shares: factory-bad and retired
        blocks are passed over, and so is a block that wears out while being
        brought to ``target_pe`` or whose erase or program reports FAIL.
        """
        if self._chip.is_bad(plane, block):
            return None
        try:
            if target_pe is not None:
                return self.probe_block_at_pe(plane, block, target_pe)
            return self.probe_block(plane, block)
        except BadBlockError:
            return None

    def probe_blocks(
        self,
        plan: ProbePlan,
        *,
        skip_bad: bool = True,
    ) -> List[BlockMeasurement]:
        """Probe a plan's worth of blocks; bad blocks are skipped (or raise)."""
        results: List[BlockMeasurement] = []
        for plane in plan.planes:
            for block in plan.blocks:
                if skip_bad:
                    measurement = self.try_probe_block(plane, block)
                    if measurement is not None:
                        results.append(measurement)
                    continue
                if self._chip.is_bad(plane, block):
                    raise BadBlockError(f"bad block p{plane}/b{block}")
                results.append(self.probe_block(plane, block))
        return results

    def bring_to_pe(self, plane: int, block: int, target_pe: int) -> None:
        """Stress-cycle a block up to ``target_pe`` erase cycles."""
        current = self._chip.pe_cycles(plane, block)
        if target_pe < current:
            raise ValueError(
                f"block already at {current} P/E cycles, cannot go back to {target_pe}"
            )
        if target_pe > current:
            self._chip.stress_block(plane, block, target_pe - current)

    def probe_block_at_pe(self, plane: int, block: int, target_pe: int) -> BlockMeasurement:
        """Wear the block to ``target_pe`` cycles (at least), then measure."""
        self.bring_to_pe(plane, block, target_pe)
        return self.probe_block(plane, block)


def probe_testbed(
    chips: Iterable[FlashChip],
    planes: Sequence[int],
    blocks: Sequence[int],
    *,
    target_pe: Optional[int] = None,
) -> MeasurementSet:
    """Probe the same plan on every chip; returns the combined measurement set.

    Mirrors the paper's methodology of collecting the same block ranges on
    each die of the testbed (Table IV), optionally at a given P/E epoch.
    """
    measurements = MeasurementSet()
    for chip in chips:
        prober = Prober(chip)
        for plane in planes:
            for block in blocks:
                measurement = prober.try_probe_block(plane, block, target_pe)
                if measurement is not None:
                    measurements.add(measurement)
    return measurements
