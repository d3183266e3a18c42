"""Exception hierarchy for the NAND device model.

The flash chip enforces the same ordering rules real NAND does
(erase-before-program, sequential word-line programming, endurance
limits); violations raise typed errors so the FTL above — and the
test-suite — can distinguish programming bugs from device wear-out.
"""

from __future__ import annotations


class FlashError(Exception):
    """Base class for all NAND device errors."""


class ProgramOrderError(FlashError):
    """Word-lines of a block must be programmed in ascending LWL order."""


class ProgramStateError(FlashError):
    """Programming a word-line that is not in the erased state."""


class BadBlockError(FlashError):
    """Operation issued to a factory-bad or retired block."""


class EnduranceExceededError(BadBlockError):
    """The block wore out: erase failed beyond its endurance budget."""


class ReadStateError(FlashError):
    """Reading a page that was never programmed."""


class UncorrectableReadError(FlashError):
    """A page's raw bit errors exceeded the ECC engine's strength.

    Carries the latency the failed attempt burned (sense plus every retry),
    so recovery paths can account for it.
    """

    def __init__(self, message: str, latency_us: float = 0.0) -> None:
        super().__init__(message)
        self.latency_us = latency_us
