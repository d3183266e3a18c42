"""What the benchmark reports: every metric's name, unit and direction.

Three groups.  ``END_TO_END`` and ``PER_LAYER`` are the metrics the last
output line carries (untraced and traced run respectively); they are
defined on every workload, and ``BENCHMARK.json`` lists them with the same
name, unit and direction.  ``SIMULATED`` are the simulated results: exact
for a seed, so a simulator-only speed-up must leave every one of them
identical while a design change moves them.  Each applies to some
workloads only, so they are printed in the run report beside their sample
counts rather than in the last line (which must carry the same metric set
on every workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


class CheckFailed(Exception):
    """An output check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str


def _m(name: str, unit: str, better: str, meaning: str) -> Metric:
    return Metric(name, unit, better, meaning)


END_TO_END: Tuple[Metric, ...] = (
    _m("setup_s", "s", "lower", "host CPU from process start to the first served request (import + median build and input generation), drift-normalized"),
    _m("serve_s", "s", "lower", "host CPU to serve the inputs (median over repetitions), drift-normalized"),
    _m("peak_rss_mb", "MB", "lower", "process peak resident set size"),
)

SIMULATED: Tuple[Metric, ...] = (
    _m("sim_write_p50_us", "us", "lower", "simulated write latency from arrival to completion, median"),
    _m("sim_write_p999_us", "us", "lower", "simulated write latency from arrival to completion, p99.9"),
    _m("sim_read_p50_us", "us", "lower", "simulated read latency from arrival to completion, median"),
    _m("sim_read_p999_us", "us", "lower", "simulated read latency from arrival to completion, p99.9"),
    _m("sim_extra_pgm_us", "us", "lower", "mean extra program latency (slowest minus fastest member) per multi-plane superpage program"),
    _m("qstr_sb_extra_pgm_us", "us", "lower", "Table V: QSTR-MED(4) mean extra program latency per assembled superblock"),
    _m("write_amp", "ratio", "lower", "(host + GC) pages programmed / host pages programmed, summed over devices"),
    _m("failed_frac", "ratio", "lower", "requests refused, failed, left unserved or read back without their data / requests attempted"),
)

_TIME = "lower"
PER_LAYER: Tuple[Metric, ...] = (
    _m("exp.setup_s", "s", _TIME, "self time of build_stack/build_fleet/Stack"),
    _m("workloads.setup_s", "s", _TIME, "self time of the input generators"),
    _m("workloads.serve_s", "s", _TIME, "self time of Replayer.replay"),
    _m("ftl.setup_s", "s", _TIME, "self time of Ftl construction and format"),
    _m("ftl.serve_s", "s", _TIME, "self time of Ftl.write/read/flush/trim"),
    _m("ftl.gc_runs", "count", "lower", "garbage collections, all devices"),
    _m("ftl.gc_pages_written", "count", "lower", "pages relocated by GC, all devices"),
    _m("ftl.sb_repairs", "count", "lower", "superblock members replaced after a program failure"),
    _m("ftl.read_buffer_hit_frac", "ratio", "higher", "Ftl.read calls answered from the write buffer / Ftl.read calls"),
    _m("ftl.unmapped_read_frac", "ratio", "lower", "Ftl.read calls of a page neither mapped nor buffered / Ftl.read calls"),
    _m("core.setup_s", "s", _TIME, "self time of QSTR-MED gathering and assembly during set-up"),
    _m("core.serve_s", "s", _TIME, "self time of QSTR-MED gathering and assembly while serving"),
    _m("core.assemblies", "count", "lower", "OnDemandAssembler.assemble calls"),
    _m("core.pair_checks", "count", "lower", "similarity pair checks of the QSTR-MED assemblers"),
    _m("nand.setup_s", "s", _TIME, "self time of chip construction, variation model and flash ops during set-up"),
    _m("nand.serve_s", "s", _TIME, "self time of flash ops while serving"),
    _m("nand.program_calls", "count", "lower", "FlashChip.program_wordline calls"),
    _m("nand.read_calls", "count", "lower", "FlashChip.read_page calls"),
    _m("nand.erase_calls", "count", "lower", "FlashChip.erase_block calls"),
    _m("ssd.serve_s", "s", _TIME, "self time of Ssd.submit and ResourceClock.acquire"),
    _m("ssd.die_busy_frac", "ratio", "lower", "mean simulated die utilization"),
    _m("ssd.channel_busy_frac", "ratio", "lower", "mean simulated channel utilization"),
    _m("ssd.die_wait_us", "us", "lower", "mean simulated wait per die ResourceClock.acquire"),
    _m("faults.serve_s", "s", _TIME, "self time of the fault injectors"),
    _m("faults.fired", "count", "lower", "injected faults that fired"),
    _m("policy.serve_s", "s", _TIME, "self time of the decision policies"),
    _m("fleet.serve_s", "s", _TIME, "self time of FleetSim.run"),
    _m("fleet.hedges", "count", "lower", "hedged reads fired"),
    _m("fleet.hedge_win_frac", "ratio", "higher", "hedges that beat the primary / hedges"),
    _m("fleet.retries", "count", "lower", "deadline retries"),
    _m("fleet.rejections", "count", "lower", "admission-control rejections"),
    _m("fleet.breaker_opens", "count", "lower", "circuit-breaker openings"),
    _m("fleet.ejections", "count", "lower", "devices ejected"),
    _m("characterization.setup_s", "s", _TIME, "self time of block probing"),
    _m("characterization.blocks_probed", "count", "lower", "Prober.probe_block calls"),
    _m("assembly.serve_s", "s", _TIME, "self time of the assemblers and their evaluation"),
    _m("assembly.optimal_combinations", "count", "lower", "combinations OPTIMAL(8) checked"),
    _m("kernels.serve_s", "s", _TIME, "self time of the vector kernels (never selected by the benchmark)"),
    _m("obs.serve_s", "s", _TIME, "self time of latency stats, registry and tracer calls"),
    _m("import.setup_s", "s", _TIME, "CPU from process start to the end of importing repro"),
    _m("unattributed.serve_s", "s", _TIME, "serve time no span covers"),
    _m("trace.overhead_s", "s", _TIME, "traced serve_s minus untraced serve_s in the same process"),
)

ALL: Dict[str, Metric] = {m.name: m for m in END_TO_END + SIMULATED + PER_LAYER}

#: a percentile needs this many samples beyond it (p99.9 -> 10,000 samples).
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float, metric: str) -> float:
    """The q-quantile (0 < q < 1) of ``values``, linear between ranks.

    Refused — a failed ``percentile_samples`` check — unless at least
    ``MIN_TAIL_SAMPLES`` samples lie beyond it.
    """
    n = len(values)
    needed = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)
    if n < needed:
        raise CheckFailed(
            "percentile_samples", f"{metric} needs >= {needed:,} samples, has {n:,}"
        )
    ordered = sorted(values)
    rank = (n - 1) * q
    low = int(math.floor(rank))
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
