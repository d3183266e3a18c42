"""Trace replay against an SSD (or bare FTL) with latency reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.perf.profiler import perf_scope
from repro.utils.stats import percentile, summarize

if TYPE_CHECKING:  # avoid a runtime cycle: ssd.device uses workloads.model
    from repro.ssd.device import CompletedRequest, Ssd
from repro.workloads.model import OpKind, Request, clamp_requests


@dataclass
class ReplayReport:
    """Latency outcome of one replay.

    ``dropped`` and ``trimmed`` count the requests the clamp to the
    device's logical space dropped (they start past its end) and trimmed
    (they run past it).
    """

    completed: List["CompletedRequest"] = field(default_factory=list)
    dropped: int = 0
    trimmed: int = 0

    def latencies(self, op: Optional[OpKind] = None) -> List[float]:
        return [
            c.latency_us
            for c in self.completed
            if op is None or c.request.op is op
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-op latency summaries (mean/p50/p99/...)."""
        report: Dict[str, Dict[str, float]] = {}
        for op in OpKind:
            values = self.latencies(op)
            if values:
                report[op.name] = summarize(values)
        return report

    def p99_write_us(self) -> float:
        writes = self.latencies(OpKind.WRITE)
        if not writes:
            raise ValueError("no writes replayed")
        return percentile(writes, 99)

    def mean_write_us(self) -> float:
        writes = self.latencies(OpKind.WRITE)
        if not writes:
            raise ValueError("no writes replayed")
        return sum(writes) / len(writes)


class Replayer:
    """Feeds a request stream to an SSD and collects the report."""

    def __init__(self, ssd: "Ssd") -> None:
        self.ssd = ssd

    def replay(self, requests: Sequence[Request]) -> ReplayReport:
        """Run all requests in timestamp order, then drain the write buffers.

        Request addresses are clamped to the device's logical space first;
        the report counts the requests that dropped and trimmed.
        """
        ordered = sorted(requests, key=lambda r: r.time_us)
        ordered, dropped, trimmed = clamp_requests(ordered, self.ssd.ftl.logical_pages)
        report = ReplayReport(dropped=dropped, trimmed=trimmed)
        with perf_scope("replay.requests"):
            for request in ordered:
                report.completed.append(self.ssd.submit(request))
        with perf_scope("replay.drain"):
            self.ssd.ftl.flush()
        return report
