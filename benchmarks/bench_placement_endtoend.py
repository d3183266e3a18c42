"""Section V-D end-to-end: function-based placement under a real write stream.

Runs the full FTL (QSTR-MED allocator with host->fast / GC->slow routing vs
a random allocator) under a GC-heavy Zipf overwrite workload and compares
the extra latencies of the superblocks each FTL actually formed, plus the
host-visible write latency.  This is the experiment the paper motivates but
only sketches — our SSD substrate lets us run it.
"""

from repro.analysis.tables import render_table
from repro.ftl import Ftl, FtlConfig
from repro.nand import FlashChip, NandGeometry, VariationModel, VariationParams
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.obs.artifacts import export_bench_artifacts
from repro.ssd import Ssd, TimingConfig
from repro.workloads import ArrivalProcess, Replayer, sequential_fill, zipf_writes

# A mid-sized geometry: paper-like block structure, fewer blocks, so the
# bench fills and GCs the drive in seconds.
BENCH_GEOMETRY = NandGeometry(
    planes_per_chip=1,
    blocks_per_plane=48,
    layers_per_block=24,
    strings_per_layer=4,
    bits_per_cell=3,
)


def run_ftl(kind: str, tracer=None, registry=None):
    model = VariationModel(
        BENCH_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=777
    )
    chips = [FlashChip(model.chip_profile(c), BENCH_GEOMETRY) for c in range(4)]
    ftl = Ftl(
        chips,
        FtlConfig(
            usable_blocks_per_plane=40,
            overprovision_ratio=0.28,
            gc_low_watermark=3,
            gc_high_watermark=5,
        ),
        allocator_kind=kind,
        tracer=NULL_TRACER if tracer is None else tracer,
        registry=registry,
    )
    ftl.format()
    ssd = Ssd(ftl, TimingConfig())
    replayer = Replayer(ssd)
    arrivals = ArrivalProcess(mean_interarrival_us=8000.0)
    replayer.replay(sequential_fill(ftl.logical_pages, arrivals=arrivals, seed=1))
    # Overwrite ~70% of the logical space again so the drive wraps and GC
    # (with its slow-superblock placement) carries real traffic.
    report = replayer.replay(
        zipf_writes(
            ftl.logical_pages,
            int(ftl.logical_pages * 0.7),
            theta=1.2,
            arrivals=arrivals,
            seed=2,
        )
    )
    return ftl, report


def test_placement_endtoend(benchmark):
    # The QSTR run carries a live tracer + registry: observation is
    # RNG-neutral, so the comparison against the untraced random run holds.
    tracer = Tracer()
    registry = MetricsRegistry()
    qstr_ftl, qstr_report = benchmark.pedantic(
        lambda: run_ftl("qstr", tracer, registry), rounds=1, iterations=1
    )
    random_ftl, random_report = run_ftl("random")

    def row(tag, ftl, report):
        m = ftl.metrics
        return [
            tag,
            f"{m.extra_program_us.mean:,.1f}",
            f"{m.extra_erase_us.mean:,.1f}" if m.extra_erase_us.count else "-",
            f"{report.mean_write_us():,.1f}",
            f"{report.p99_write_us():,.1f}",
            f"{m.write_amplification:.2f}",
            f"{m.gc_runs:.0f}",
        ]

    print()
    print(
        render_table(
            ["Allocator", "extra PGM/op us", "extra ERS us", "host write us",
             "p99 write us", "WAF", "GC runs"],
            [
                row("QSTR-MED", qstr_ftl, qstr_report),
                row("random", random_ftl, random_report),
            ],
        )
    )

    summary = {
        "qstr_extra_program_mean_us": qstr_ftl.metrics.extra_program_us.mean,
        "qstr_extra_program_p99_us": qstr_ftl.metrics.extra_program_us.p99,
        "qstr_host_write_mean_us": qstr_report.mean_write_us(),
        "qstr_host_write_p99_us": qstr_report.p99_write_us(),
        "qstr_write_amplification": qstr_ftl.metrics.write_amplification,
        "qstr_gc_runs": qstr_ftl.metrics.gc_runs,
        "random_extra_program_mean_us": random_ftl.metrics.extra_program_us.mean,
        "random_host_write_p99_us": random_report.p99_write_us(),
        "random_write_amplification": random_ftl.metrics.write_amplification,
    }
    export_bench_artifacts("bench_placement_endtoend", summary, tracer=tracer)

    # The PV-aware allocator forms superblocks with materially less extra
    # program latency under the same workload.
    assert (
        qstr_ftl.metrics.extra_program_us.mean
        < random_ftl.metrics.extra_program_us.mean * 0.9
    )
    # Both FTLs did comparable logical work.
    assert qstr_ftl.metrics.host_pages_written == random_ftl.metrics.host_pages_written
    # The data path stayed intact under GC for both.
    assert qstr_ftl.metrics.gc_runs > 0 and random_ftl.metrics.gc_runs > 0
