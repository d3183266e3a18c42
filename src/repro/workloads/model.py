"""Host request model."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Tuple


class OpKind(Enum):
    READ = "R"
    WRITE = "W"
    TRIM = "T"

    @classmethod
    def parse(cls, token: str) -> "OpKind":
        normalized = token.strip().upper()
        for kind in cls:
            if normalized in (kind.value, kind.name):
                return kind
        raise ValueError(f"unknown op {token!r}")


@dataclass(frozen=True)
class Request:
    """One host request: op + first logical page + page count + arrival time."""

    time_us: float
    op: OpKind
    lpn: int
    pages: int = 1

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise ValueError("time_us must be >= 0")
        if self.lpn < 0:
            raise ValueError("lpn must be >= 0")
        if self.pages < 1:
            raise ValueError("pages must be >= 1")

    def lpns(self) -> Iterator[int]:
        """The logical pages this request touches, in order."""
        return iter(range(self.lpn, self.lpn + self.pages))

    @property
    def end_lpn(self) -> int:
        return self.lpn + self.pages - 1


def clamp_requests(
    requests: List[Request], logical_pages: int
) -> Tuple[List[Request], int, int]:
    """Drop or trim requests that run past the device's logical space.

    Returns the requests kept, in order, then how many were dropped
    (they start past the end) and how many trimmed (they run past it).
    """
    result: List[Request] = []
    trimmed = 0
    for request in requests:
        if request.lpn >= logical_pages:
            continue
        if request.end_lpn < logical_pages:
            result.append(request)
        else:
            trimmed += 1
            result.append(
                Request(
                    time_us=request.time_us,
                    op=request.op,
                    lpn=request.lpn,
                    pages=logical_pages - request.lpn,
                )
            )
    return result, len(requests) - len(result), trimmed
