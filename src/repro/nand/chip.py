"""Stateful NAND flash chip.

Wraps a :class:`~repro.nand.variation.ChipVariationProfile` with the state
machine of a real chip: blocks must be erased before programming, word-lines
program strictly in LWL order, erases count P/E cycles, worn-out blocks fail
and retire.  Every operation returns its latency in µs — this is the *only*
way the layers above (characterization, FTL, SSD simulator) learn timings,
exactly like firmware timing commands on the paper's tester.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.injector import NULL_INJECTOR, NullInjector
from repro.nand import errors
from repro.nand.geometry import NandGeometry, PageType
from repro.nand.reliability import EccEngine, ReadCorrection
from repro.nand.variation import ChipVariationProfile
from repro.perf.profiler import profiled
from repro.utils.rng import derive_seed


class OpStatus(enum.Enum):
    """Status a program/erase command reports, as real NAND does.

    Real chips do not raise exceptions — firmware reads a status register
    after every program/erase and reacts to FAIL by retiring the block.
    Exceptions remain for *protocol* violations (programming out of order,
    touching a factory-bad block); injected and wear-induced media failures
    surface as ``FAIL`` results instead.
    """

    OK = "ok"
    FAIL = "fail"


@dataclass
class _BlockState:
    pe_cycles: int = 0
    erased: bool = False
    next_lwl: int = 0
    retired: bool = False
    programmed_at_hours: float = 0.0
    pages: Dict[Tuple[int, PageType], object] = field(default_factory=dict)


@dataclass(frozen=True)
class OperationResult:
    """Outcome of a single-plane flash operation.

    ``correction`` is present on reads when the chip models ECC: how many
    raw bits the engine fixed and how many read-retries it needed.
    ``status`` is the chip's status-register verdict: ``FAIL`` on injected
    program/erase failures (the operation still took ``latency_us``).
    """

    latency_us: float
    correction: Optional[ReadCorrection] = None
    status: OpStatus = OpStatus.OK

    @property
    def ok(self) -> bool:
        return self.status is OpStatus.OK


@dataclass(frozen=True)
class BlockProgramResult:
    """Outcome of :meth:`FlashChip.program_block`.

    ``latencies_us`` holds the tPROG of every word-line the call committed,
    in LWL order (read-only).  ``status`` is ``FAIL`` when a word-line's
    program failed: programming stopped there, and that word-line is
    neither committed nor listed.
    """

    latencies_us: np.ndarray
    status: OpStatus = OpStatus.OK

    @property
    def ok(self) -> bool:
        return self.status is OpStatus.OK


_NO_LATENCIES = np.zeros(0)
_NO_LATENCIES.setflags(write=False)


class FlashChip:
    """One NAND die with four planes (by default) and full ordering rules."""

    def __init__(
        self,
        profile: ChipVariationProfile,
        geometry: NandGeometry,
        ecc: Optional[EccEngine] = None,
        read_seed: int = 0,
        injector: NullInjector = NULL_INJECTOR,
    ) -> None:
        self._profile = profile
        self._geometry = geometry
        self._blocks: Dict[Tuple[int, int], _BlockState] = {}
        self._ecc = ecc
        self._read_rng = np.random.default_rng(
            derive_seed(read_seed, "chip", profile.chip_id, "reads")
        )
        self._clock_hours = 0.0
        self._injector = injector
        self._grown_bad = 0

    @property
    def ecc(self) -> Optional[EccEngine]:
        return self._ecc

    @property
    def injector(self) -> NullInjector:
        """The chip's fault injector (the shared null object by default)."""
        return self._injector

    @property
    def grown_bad_blocks(self) -> int:
        """Blocks this chip retired during operation (wear or injected)."""
        return self._grown_bad

    def retire_block(self, plane: int, block: int) -> None:
        """Firmware-initiated retirement: mark a block grown-bad."""
        state = self._state(plane, block)
        if not state.retired:
            state.retired = True
            self._grown_bad += 1

    @property
    def clock_hours(self) -> float:
        return self._clock_hours

    def bake(self, hours: float) -> None:
        """Advance retention time (the chamber's HTDR bakes, Table III)."""
        if hours < 0:
            raise ValueError("hours must be non-negative")
        self._clock_hours += hours

    @property
    def chip_id(self) -> int:
        return self._profile.chip_id

    @property
    def geometry(self) -> NandGeometry:
        return self._geometry

    @property
    def profile(self) -> ChipVariationProfile:
        """The underlying variation profile (read-only use)."""
        return self._profile

    # -- state helpers ------------------------------------------------------

    def _state(self, plane: int, block: int) -> _BlockState:
        self._geometry.check_plane(plane)
        self._geometry.check_block(block)
        key = (plane, block)
        state = self._blocks.get(key)
        if state is None:
            state = _BlockState()
            self._blocks[key] = state
        return state

    def pe_cycles(self, plane: int, block: int) -> int:
        """Erase count of a block."""
        return self._state(plane, block).pe_cycles

    def is_bad(self, plane: int, block: int) -> bool:
        """Factory-bad or retired."""
        return self._profile.is_factory_bad(plane, block) or self._state(plane, block).retired

    def programmed_lwls(self, plane: int, block: int) -> int:
        """How many word-lines of the block are programmed."""
        return self._state(plane, block).next_lwl

    def is_fully_programmed(self, plane: int, block: int) -> bool:
        return self._state(plane, block).next_lwl >= self._geometry.lwls_per_block

    # -- single-plane operations ----------------------------------------------

    @profiled("nand.erase")
    def erase_block(self, plane: int, block: int) -> OperationResult:
        """Erase a block; returns tBERS.  Worn-out blocks fail and retire."""
        state = self._state(plane, block)
        if self._profile.is_factory_bad(plane, block):
            raise errors.BadBlockError(f"factory bad block p{plane}/b{block}")
        if state.retired:
            raise errors.BadBlockError(f"retired block p{plane}/b{block}")
        if state.pe_cycles >= self._profile.endurance_limit(plane, block):
            state.retired = True
            self._grown_bad += 1
            raise errors.EnduranceExceededError(
                f"block p{plane}/b{block} wore out at {state.pe_cycles} P/E cycles"
            )
        latency = self._profile.erase_latency(plane, block, state.pe_cycles)
        if self._injector.enabled:
            if self._injector.plane_dead(plane):
                # Dead plane: the command times out without touching state.
                return OperationResult(latency_us=latency, status=OpStatus.FAIL)
            if self._injector.fail_erase(plane, block):
                # Erase-status failure: the block is grown-bad from now on.
                state.pe_cycles += 1
                state.retired = True
                self._grown_bad += 1
                return OperationResult(latency_us=latency, status=OpStatus.FAIL)
        state.pe_cycles += 1
        state.erased = True
        state.next_lwl = 0
        state.pages.clear()
        return OperationResult(latency_us=latency)

    @profiled("nand.program")
    def program_wordline(
        self,
        plane: int,
        block: int,
        lwl: int,
        data: Optional[Dict[PageType, object]] = None,
    ) -> OperationResult:
        """Program one logical word-line (all its pages at once); returns tPROG.

        Word-lines must be programmed in ascending LWL order on an erased
        block, as on real NAND.
        """
        self._geometry.check_lwl(lwl)
        state = self._state(plane, block)
        if self.is_bad(plane, block):
            raise errors.BadBlockError(f"bad block p{plane}/b{block}")
        if not state.erased:
            raise errors.ProgramStateError(
                f"block p{plane}/b{block} must be erased before programming"
            )
        if lwl != state.next_lwl:
            raise errors.ProgramOrderError(
                f"block p{plane}/b{block}: expected LWL {state.next_lwl}, got {lwl}"
            )
        layer, string = self._geometry.lwl_components(lwl)
        latency = self._profile.program_latency(
            plane, block, layer, string, state.pe_cycles
        )
        if self._injector.enabled:
            if self._injector.plane_dead(plane):
                return OperationResult(latency_us=latency, status=OpStatus.FAIL)
            if self._injector.fail_program(plane, block):
                # Program-status failure: data is not committed, the
                # word-line pointer does not advance, and the block retires.
                # Previously programmed word-lines remain readable so the
                # FTL can copy survivors off the block.
                state.retired = True
                self._grown_bad += 1
                return OperationResult(latency_us=latency, status=OpStatus.FAIL)
        if lwl == 0:
            state.programmed_at_hours = self._clock_hours
        if data:
            for page_type, payload in data.items():
                self._geometry.check_page_type(page_type)
                state.pages[(lwl, page_type)] = payload
        state.next_lwl = lwl + 1
        return OperationResult(latency_us=latency)

    @profiled("nand.program")
    def program_block(self, plane: int, block: int) -> BlockProgramResult:
        """Program the rest of a block, from its next word-line to the last.

        The whole-block path of the characterization prober and the FTL's
        burn-in (Figure 9's latency table).  It behaves exactly like calling
        :meth:`program_wordline` for each remaining LWL in order and
        stopping at the first FAIL, but checks the block state once and
        reads the tPROG values from the block's cached latency row.  With
        an enabled injector every word-line still consults ``plane_dead``
        and then ``fail_program``, in that order.  A FAIL ends the call: a
        program FAIL retires the block (a dead plane leaves it as is), and
        the result carries the FAIL status with the latencies of the
        word-lines committed before it.
        """
        state = self._state(plane, block)
        lwls = self._geometry.lwls_per_block
        start = state.next_lwl
        if start >= lwls:
            return BlockProgramResult(latencies_us=_NO_LATENCIES)
        if self.is_bad(plane, block):
            raise errors.BadBlockError(f"bad block p{plane}/b{block}")
        if not state.erased:
            raise errors.ProgramStateError(
                f"block p{plane}/b{block} must be erased before programming"
            )
        row = self._profile.block_program_latencies(
            plane, block, state.pe_cycles
        ).reshape(-1)
        end = lwls
        status = OpStatus.OK
        injector = self._injector
        if injector.enabled:
            for lwl in range(start, lwls):
                if injector.plane_dead(plane):
                    end, status = lwl, OpStatus.FAIL
                    break
                if injector.fail_program(plane, block):
                    state.retired = True
                    self._grown_bad += 1
                    end, status = lwl, OpStatus.FAIL
                    break
        if end > start:
            if start == 0:
                state.programmed_at_hours = self._clock_hours
            state.next_lwl = end
        return BlockProgramResult(latencies_us=row[start:end], status=status)

    def stress_block(self, plane: int, block: int, cycles: int) -> None:
        """Apply ``cycles`` erase/program stress cycles without timing them.

        Fast-path used by the characterization harness to bring a block to a
        target P/E count (the paper's tester cycles blocks between measured
        epochs).  Endurance accounting still applies.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        state = self._state(plane, block)
        if self.is_bad(plane, block):
            raise errors.BadBlockError(f"bad block p{plane}/b{block}")
        limit = self._profile.endurance_limit(plane, block)
        if state.pe_cycles + cycles > limit:
            state.pe_cycles = limit
            state.retired = True
            self._grown_bad += 1
            raise errors.EnduranceExceededError(
                f"block p{plane}/b{block} wore out during stress at {limit} P/E cycles"
            )
        state.pe_cycles += cycles
        state.erased = True
        state.next_lwl = 0
        state.pages.clear()

    @profiled("nand.read")
    def read_page(
        self, plane: int, block: int, lwl: int, page_type: PageType
    ) -> Tuple[OperationResult, object]:
        """Read one page; returns (tR, stored payload)."""
        self._geometry.check_lwl(lwl)
        self._geometry.check_page_type(page_type)
        state = self._state(plane, block)
        if lwl >= state.next_lwl:
            raise errors.ReadStateError(
                f"p{plane}/b{block}/wl{lwl} not programmed (next={state.next_lwl})"
            )
        latency = self._profile.read_latency(plane, block, lwl)
        rber_multiplier = 1.0
        if self._injector.enabled:
            rber_multiplier = self._injector.read_rber_multiplier(plane, block)
            if self._injector.plane_dead(plane):
                raise errors.UncorrectableReadError(
                    f"p{plane}/b{block}/wl{lwl}/{page_type.name}: plane offline",
                    latency_us=latency,
                )
        payload = state.pages.get((lwl, page_type))
        correction: Optional[ReadCorrection] = None
        if self._ecc is not None:
            retention = max(0.0, self._clock_hours - state.programmed_at_hours)
            page_rber = rber_multiplier * self._profile.page_rber(
                plane, block, lwl, page_type, state.pe_cycles, retention
            )
            correction = self._ecc.read_page(page_rber, self._read_rng)
            latency += correction.extra_latency_us
            if correction.uncorrectable:
                raise errors.UncorrectableReadError(
                    f"p{plane}/b{block}/wl{lwl}/{page_type.name}: raw error rate "
                    f"{page_rber:.2e} beyond ECC after {correction.retries} retries",
                    latency_us=latency,
                )
        return OperationResult(latency_us=latency, correction=correction), payload
