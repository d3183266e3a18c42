"""repro.api — the one stable import surface for benchmarks and tools.

Everything outside ``src/repro`` (benchmarks, tools, examples, notebooks)
should import from here, not from individual layers; see DESIGN.md
("Stable API facade").  The facade pins the names that downstream code may
rely on across refactors:

* experiment substrate — :class:`SimConfig`, :func:`build_stack`,
  :class:`Sweep`, :func:`run_sweep` (also exported as :func:`run`),
  :class:`ResultCache`, the task registry;
* device construction — geometry/variation model, chips, pools, FTL, SSD;
* vector backend — batch kernels and the struct-of-arrays engine behind
  ``SimConfig.backend == "vector"`` (byte-identical to scalar);
* decision policies — the :class:`Policy` protocol, its per-point base
  classes and contexts, the name registry and :func:`resolve_policies`;
* method evaluation — assemblers, :func:`evaluate_assembler`,
  :class:`MethodEvaluator`, :class:`MethodRow`;
* analysis drivers and renderers for every table/figure of the paper;
* observability — tracer, metrics registry, bench artifact export;
* small utilities (seed derivation, stats, units) the benches share.

``__all__`` is assembled from one tuple per section below, and
``tests/test_api_surface.py`` pins the full name list — growing the facade
is a reviewed, test-visible change; shrinking it is a breaking one.

Names deliberately *not* re-exported (private helpers, layer internals)
may change without notice.
"""

from repro.analysis import (
    KNOBS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE5,
    TABLE1_METHODS,
    TABLE2_METHODS,
    TABLE5_METHODS,
    CharacterizationSeries,
    PerSuperblockSeries,
    RandomExtraSeries,
    RepairComparison,
    RepairPolicyResult,
    SensitivityPoint,
    compare_repair_policies,
    cumulative_mean,
    default_fault_config,
    evaluate_variant,
    fig5_characterization,
    fig6_random_extra,
    fig13_distributions,
    fig14_per_superblock,
    improvement_series,
    knob_sweep,
    render_histogram,
    render_repair_comparison,
    render_series_block,
    render_table,
    render_table1,
    render_table2,
    render_table5,
    run_methods,
    run_repair_policy,
    seed_sweep,
    sparkline,
)
from repro.assembly import (
    ErsLatencyAssembler,
    LanePool,
    LwlRankAssembler,
    MethodResult,
    OptimalAssembler,
    PgmLatencyAssembler,
    PwlRankAssembler,
    RandomAssembler,
    SequentialAssembler,
    StrMedianAssembler,
    StrRankAssembler,
    Superblock,
    build_lane_pools,
    evaluate_assembler,
)
from repro.characterization import (
    BlockMeasurement,
    Prober,
)
from repro.characterization.statistics import (
    mean_lwl_curve,
    residual_trend_correlation,
    variability_report,
)
from repro.core import (
    FootprintModel,
    GatheringUnit,
    QstrMedAssembler,
    QstrMedScheme,
    SpeedClass,
    WriteIntent,
    WriteSource,
    eigen_sequence,
    overhead_reduction_pct,
    qstr_med_pair_checks,
    str_med_pair_checks,
)
from repro.exp import (
    ALLOCATOR_KINDS,
    DEFAULT_METHODS,
    TASKS,
    MethodEvaluator,
    MethodRow,
    ResultCache,
    SimConfig,
    Stack,
    Sweep,
    SweepResult,
    WorkloadConfig,
    build_stack,
    default_cache_dir,
    make_assembler,
    method_names,
    register_task,
    worker_entrypoint,
)
from repro.exp import run as run_sweep
from repro.exp.sweep import CellTimeoutError, dig
from repro.faults import (
    NULL_INJECTOR,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NullInjector,
    make_injector,
)
from repro.exp.build import build_fleet
from repro.fleet import (
    CircuitBreaker,
    FleetConfig,
    FleetReport,
    FleetSim,
    TenantRequest,
    fleet_workload,
    tenant_stream,
)
from repro.ftl import Ftl, FtlConfig, WearLevelingConfig, WriteStream
from repro.kernels import (
    BATCH_SIGNATURE_BUILDERS,
    ArrayPageMapper,
    EccBatchResult,
    SuperwlStats,
    VectorFtl,
    VectorSsd,
    batch_erase_latencies,
    batch_lwl_rank,
    batch_pwl_rank,
    batch_str_median,
    batch_str_rank,
    block_latency_stack,
    block_program_totals,
    ecc_read_batch,
    eigen_bitvectors,
    eigen_distance_matrix,
    fill_request_count,
    pack_eigen_bits,
    rber_batch,
    sequential_fill_prefix,
    signature_distance_matrix,
    superwl_stats,
)
from repro.nand import (
    PAPER_GEOMETRY,
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    NandGeometry,
    PageType,
    VariationModel,
    VariationParams,
)
from repro.nand.errors import UncorrectableReadError
from repro.obs import (
    NULL_TRACER,
    LatencyHistogram,
    MetricsRegistry,
    Tracer,
    TraceSummary,
    export_bench_artifacts,
)
from repro.perf import (
    Profiler,
    Stopwatch,
    compare_docs,
    layer_shares,
    perf_scope,
    profiled,
    render_comparison,
    render_profile,
    run_suite,
    validate_bench_doc,
)
from repro.policy import (
    DEFAULT_SPECS,
    POLICY_POINTS,
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    AssemblyContext,
    AssemblyPolicy,
    BanditAllocationPolicy,
    LatencyPredictorPolicy,
    Policy,
    PolicyConfig,
    PolicySpec,
    RepairContext,
    RepairPolicy,
    ResolvedPolicies,
    get_policy,
    make_policy,
    policy_names,
    register_policy,
    resolve_policies,
)
from repro.ssd import Ssd, TimingConfig
from repro.utils.rng import derive_seed
from repro.utils.stats import percentile
from repro.utils.units import TIB, format_bytes
from repro.workloads import (
    ArrivalProcess,
    OpKind,
    Replayer,
    Request,
    load_trace,
    save_trace,
    sequential_fill,
    zipf_writes,
)

#: the sweep runner under its short name too, matching ``repro.exp.run``.
run = run_sweep

#: experiment substrate (``repro.exp``): configs, stacks, sweeps, caching.
EXPERIMENT_API = (
    "SimConfig",
    "WorkloadConfig",
    "ALLOCATOR_KINDS",
    "Stack",
    "build_stack",
    "Sweep",
    "SweepResult",
    "run",
    "run_sweep",
    "worker_entrypoint",
    "dig",
    "CellTimeoutError",
    "ResultCache",
    "default_cache_dir",
    "TASKS",
    "register_task",
    "DEFAULT_METHODS",
    "MethodEvaluator",
    "MethodRow",
    "make_assembler",
    "method_names",
)

#: device construction: geometry/variation, chips, characterization, FTL, SSD.
DEVICE_API = (
    "NandGeometry",
    "PageType",
    "PAPER_GEOMETRY",
    "SMALL_GEOMETRY",
    "EccConfig",
    "EccEngine",
    "FlashChip",
    "VariationModel",
    "VariationParams",
    "Prober",
    "BlockMeasurement",
    "mean_lwl_curve",
    "variability_report",
    "residual_trend_correlation",
    "UncorrectableReadError",
    "Ftl",
    "FtlConfig",
    "WearLevelingConfig",
    "WriteStream",
    "Ssd",
    "TimingConfig",
)

#: vector backend (``repro.kernels``): struct-of-arrays batch twins of the
#: scalar hot paths, plus the engine classes ``build_stack`` swaps in when
#: ``SimConfig.backend == "vector"``.  Byte-identical to the scalar path.
KERNELS_API = (
    "VectorSsd",
    "VectorFtl",
    "ArrayPageMapper",
    "BATCH_SIGNATURE_BUILDERS",
    "batch_lwl_rank",
    "batch_pwl_rank",
    "batch_str_rank",
    "batch_str_median",
    "pack_eigen_bits",
    "eigen_bitvectors",
    "signature_distance_matrix",
    "eigen_distance_matrix",
    "SuperwlStats",
    "superwl_stats",
    "block_latency_stack",
    "block_program_totals",
    "batch_erase_latencies",
    "EccBatchResult",
    "ecc_read_batch",
    "rber_batch",
    "fill_request_count",
    "sequential_fill_prefix",
)

#: decision-policy registry (``repro.policy``): the seedable policy protocol
#: behind the assembly, allocation and repair decisions, its per-point
#: contexts, the name registry and the two learned built-ins.
POLICY_API = (
    "Policy",
    "PolicySpec",
    "PolicyConfig",
    "POLICY_POINTS",
    "DEFAULT_SPECS",
    "register_policy",
    "get_policy",
    "policy_names",
    "make_policy",
    "resolve_policies",
    "ResolvedPolicies",
    "AssemblyPolicy",
    "AssemblyContext",
    "AllocationPolicy",
    "AllocationContext",
    "AllocationDecision",
    "RepairPolicy",
    "RepairContext",
    "LatencyPredictorPolicy",
    "BanditAllocationPolicy",
)

#: fleet serving layer (``repro.fleet``): sharded multi-SSD serving with
#: deadlines, hedged reads, circuit breakers and graceful degradation.
FLEET_API = (
    "FleetConfig",
    "FleetSim",
    "FleetReport",
    "CircuitBreaker",
    "TenantRequest",
    "tenant_stream",
    "fleet_workload",
    "build_fleet",
)

#: deterministic fault injection (``repro.faults``).
FAULTS_API = (
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
    "make_injector",
)

#: superblock assembly methods and the placement core.
ASSEMBLY_API = (
    "LanePool",
    "Superblock",
    "build_lane_pools",
    "evaluate_assembler",
    "MethodResult",
    "RandomAssembler",
    "SequentialAssembler",
    "ErsLatencyAssembler",
    "PgmLatencyAssembler",
    "OptimalAssembler",
    "LwlRankAssembler",
    "PwlRankAssembler",
    "StrRankAssembler",
    "StrMedianAssembler",
    "QstrMedAssembler",
    "QstrMedScheme",
    "GatheringUnit",
    "FootprintModel",
    "SpeedClass",
    "WriteIntent",
    "WriteSource",
    "eigen_sequence",
    "str_med_pair_checks",
    "qstr_med_pair_checks",
    "overhead_reduction_pct",
)

#: analysis drivers and renderers for the paper's tables and figures.
ANALYSIS_API = (
    "run_methods",
    "TABLE1_METHODS",
    "TABLE2_METHODS",
    "TABLE5_METHODS",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE5",
    "CharacterizationSeries",
    "fig5_characterization",
    "RandomExtraSeries",
    "fig6_random_extra",
    "fig13_distributions",
    "PerSuperblockSeries",
    "fig14_per_superblock",
    "KNOBS",
    "SensitivityPoint",
    "evaluate_variant",
    "knob_sweep",
    "seed_sweep",
    "RepairComparison",
    "RepairPolicyResult",
    "compare_repair_policies",
    "default_fault_config",
    "run_repair_policy",
    "render_repair_comparison",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table5",
    "render_series_block",
    "render_histogram",
    "cumulative_mean",
    "improvement_series",
    "sparkline",
)

#: observability: tracer, metrics registry, bench artifact export.
OBS_API = (
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "LatencyHistogram",
    "TraceSummary",
    "export_bench_artifacts",
)

#: wall-clock performance (``repro.perf``): profiling and the bench gate.
PERF_API = (
    "Profiler",
    "Stopwatch",
    "perf_scope",
    "profiled",
    "layer_shares",
    "render_profile",
    "run_suite",
    "validate_bench_doc",
    "compare_docs",
    "render_comparison",
)

#: host workloads: request model, replay, synthetic and trace loaders.
WORKLOADS_API = (
    "Request",
    "OpKind",
    "Replayer",
    "ArrivalProcess",
    "sequential_fill",
    "zipf_writes",
    "load_trace",
    "save_trace",
)

#: small shared utilities (seed derivation, stats, units).
UTILS_API = (
    "derive_seed",
    "percentile",
    "TIB",
    "format_bytes",
)

#: (section name, names) pairs, in documentation order.
API_SECTIONS = (
    ("experiment", EXPERIMENT_API),
    ("device", DEVICE_API),
    ("kernels", KERNELS_API),
    ("policy", POLICY_API),
    ("fleet", FLEET_API),
    ("faults", FAULTS_API),
    ("assembly", ASSEMBLY_API),
    ("analysis", ANALYSIS_API),
    ("obs", OBS_API),
    ("perf", PERF_API),
    ("workloads", WORKLOADS_API),
    ("utils", UTILS_API),
)

__all__ = [name for _, names in API_SECTIONS for name in names]
