"""FTL runtime metrics.

Latency accounting separates what the host sees (superpage program
completions, page reads) from background work (GC reads/writes, erases),
and tracks the paper's headline quantities: accumulated extra program and
erase latency of the superblocks the FTL actually formed.

Every latency accumulator is a :class:`~repro.obs.histograms.LatencyStat` —
a fixed-bucket histogram behind the familiar ``mean``/``count`` surface —
so the summary reports tails (p50/p95/p99/max), not just means: the tail is
where a badly assembled superblock actually hurts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.histograms import LatencyStat


@dataclass
class FtlMetrics:
    """Counters and latency accumulators of one FTL instance."""

    host_write_us: LatencyStat = field(default_factory=LatencyStat)
    host_read_us: LatencyStat = field(default_factory=LatencyStat)
    gc_write_us: LatencyStat = field(default_factory=LatencyStat)
    gc_read_us: LatencyStat = field(default_factory=LatencyStat)
    erase_us: LatencyStat = field(default_factory=LatencyStat)
    # per-MP-command extra (max - min) latencies
    extra_program_us: LatencyStat = field(default_factory=LatencyStat)
    extra_erase_us: LatencyStat = field(default_factory=LatencyStat)

    # per-stream superpage completion latency (fast / fast_express / ...)
    stream_write_us: Dict[str, LatencyStat] = field(default_factory=dict)

    host_pages_written: int = 0
    gc_pages_written: int = 0
    pages_read: int = 0
    # reads of a page neither mapped nor buffered: answered without data
    unmapped_reads: int = 0
    superblocks_opened: int = 0
    superblocks_erased: int = 0
    gc_runs: int = 0
    blocks_retired: int = 0
    parity_reconstructions: int = 0

    # -- fault handling (all zero unless fault injection is active) --------
    program_failures: int = 0  # program-status FAILs the flush path absorbed
    erase_failures: int = 0  # erase-status FAILs observed while reclaiming
    sb_repairs: int = 0  # members swapped for drafted spares
    superblocks_degraded: int = 0  # superblocks that lost a member at erase
    plane_purges: int = 0  # free pools purged after a plane outage
    # copy-back cost of each repair, and the MP extra latency of every
    # super word-line programmed on an already-repaired superblock — the
    # quantity the qstr-vs-random repair experiment compares.
    repair_copy_us: LatencyStat = field(default_factory=LatencyStat)
    post_repair_extra_us: LatencyStat = field(default_factory=LatencyStat)

    @property
    def faults_active(self) -> bool:
        """Whether any *injected* fault was absorbed.

        Gates the extra summary keys; deliberately excludes
        ``superblocks_degraded``, which natural wear-out can bump in a
        fault-free run — those summaries must stay byte-identical to
        builds without the fault layer.
        """
        return bool(
            self.program_failures
            or self.erase_failures
            or self.sb_repairs
            or self.plane_purges
        )

    def record_stream_write(self, stream: str, completion_us: float) -> None:
        """Track one superpage program completion under its stream label."""
        stats = self.stream_write_us.get(stream)
        if stats is None:
            stats = LatencyStat()
            self.stream_write_us[stream] = stats
        stats.add(completion_us)

    @property
    def write_amplification(self) -> float:
        """(host + GC pages) / host pages; 1.0 means no relocation traffic.

        With no host traffic at all there is nothing to amplify, so the
        neutral 1.0 is reported — a 0.0 would read as "better than ideal"
        in comparisons.
        """
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.gc_pages_written) / self.host_pages_written

    def summary(self) -> Dict[str, float]:
        """Flat dict for reports and benches.

        Host-facing distributions carry their tails (p50/p95/p99/max);
        background accumulators report mean plus p99.  Per-stream superpage
        completions are flattened as ``stream_<name>_write_mean_us`` so the
        fast/slow-stream split survives into bench output.
        """
        def mean_or_zero(stats: LatencyStat) -> float:
            return stats.mean if stats.count else 0.0

        def quantile_or_zero(stats: LatencyStat, q: float) -> float:
            return stats.quantile(q) if stats.count else 0.0

        def max_or_zero(stats: LatencyStat) -> float:
            return stats.maximum if stats.count else 0.0

        out = {
            "host_pages_written": float(self.host_pages_written),
            "gc_pages_written": float(self.gc_pages_written),
            "pages_read": float(self.pages_read),
            "write_amplification": self.write_amplification,
            "host_write_mean_us": mean_or_zero(self.host_write_us),
            "host_write_p50_us": quantile_or_zero(self.host_write_us, 0.50),
            "host_write_p95_us": quantile_or_zero(self.host_write_us, 0.95),
            "host_write_p99_us": quantile_or_zero(self.host_write_us, 0.99),
            "host_write_max_us": max_or_zero(self.host_write_us),
            "host_read_mean_us": mean_or_zero(self.host_read_us),
            "host_read_p99_us": quantile_or_zero(self.host_read_us, 0.99),
            "gc_write_mean_us": mean_or_zero(self.gc_write_us),
            "gc_read_mean_us": mean_or_zero(self.gc_read_us),
            "erase_mean_us": mean_or_zero(self.erase_us),
            "extra_program_mean_us": mean_or_zero(self.extra_program_us),
            "extra_program_p99_us": quantile_or_zero(self.extra_program_us, 0.99),
            "extra_program_max_us": max_or_zero(self.extra_program_us),
            "extra_erase_mean_us": mean_or_zero(self.extra_erase_us),
            "superblocks_opened": float(self.superblocks_opened),
            "superblocks_erased": float(self.superblocks_erased),
            "gc_runs": float(self.gc_runs),
            "blocks_retired": float(self.blocks_retired),
            "parity_reconstructions": float(self.parity_reconstructions),
        }
        for name in sorted(self.stream_write_us):
            out[f"stream_{name}_write_mean_us"] = mean_or_zero(
                self.stream_write_us[name]
            )
        # Like the fault keys below, present only when nonzero: summaries of
        # runs that never read an unwritten page stay byte-identical.
        if self.unmapped_reads:
            out["unmapped_reads"] = float(self.unmapped_reads)
        # Fault keys appear only when injection actually bit: fault-free
        # summaries stay byte-identical to builds without the fault layer.
        if self.faults_active:
            out["program_failures"] = float(self.program_failures)
            out["erase_failures"] = float(self.erase_failures)
            out["sb_repairs"] = float(self.sb_repairs)
            out["superblocks_degraded"] = float(self.superblocks_degraded)
            out["plane_purges"] = float(self.plane_purges)
            out["repair_copy_mean_us"] = mean_or_zero(self.repair_copy_us)
            out["post_repair_extra_mean_us"] = mean_or_zero(self.post_repair_extra_us)
            out["post_repair_extra_p99_us"] = quantile_or_zero(
                self.post_repair_extra_us, 0.99
            )
        return out
