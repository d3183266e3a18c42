"""Snapshot of the ``repro.api`` facade.

The facade is the one import surface benchmarks / tools / examples rely on,
so its exported-name set is pinned here verbatim: adding a name is a
deliberate, test-visible diff; removing one is a breaking change that must
fail loudly.  Keep :data:`EXPECTED_EXPORTS` sorted within each section —
the diff stays reviewable that way.
"""

from __future__ import annotations

import repro.api as api

EXPECTED_EXPORTS = frozenset(
    {
        # -- experiment substrate (repro.exp) --
        "ALLOCATOR_KINDS",
        "CellTimeoutError",
        "DEFAULT_METHODS",
        "MethodEvaluator",
        "MethodRow",
        "ResultCache",
        "SimConfig",
        "Stack",
        "Sweep",
        "SweepResult",
        "TASKS",
        "WorkloadConfig",
        "build_stack",
        "default_cache_dir",
        "dig",
        "make_assembler",
        "method_names",
        "register_task",
        "run",
        "run_sweep",
        "worker_entrypoint",
        # -- device construction --
        "BlockMeasurement",
        "EccConfig",
        "EccEngine",
        "FlashChip",
        "Ftl",
        "FtlConfig",
        "MeasurementSet",
        "NandGeometry",
        "PAPER_GEOMETRY",
        "PageType",
        "ProbePlan",
        "Prober",
        "SMALL_GEOMETRY",
        "Ssd",
        "TimingConfig",
        "UncorrectableReadError",
        "VariationModel",
        "VariationParams",
        "WearLevelingConfig",
        "WriteStream",
        "mean_lwl_curve",
        "probe_testbed",
        "residual_trend_correlation",
        "variability_report",
        # -- vector kernels (repro.kernels) --
        "ArrayPageMapper",
        "BATCH_SIGNATURE_BUILDERS",
        "EccBatchResult",
        "SuperwlStats",
        "VectorFtl",
        "VectorSsd",
        "batch_erase_latencies",
        "batch_lwl_rank",
        "batch_pwl_rank",
        "batch_str_median",
        "batch_str_rank",
        "block_latency_stack",
        "block_program_totals",
        "ecc_read_batch",
        "eigen_bitvectors",
        "eigen_distance_matrix",
        "fill_request_count",
        "pack_eigen_bits",
        "rber_batch",
        "sequential_fill_prefix",
        "signature_distance_matrix",
        "superwl_stats",
        # -- decision-policy registry (repro.policy) --
        "AllocationContext",
        "AllocationDecision",
        "AllocationPolicy",
        "AssemblyContext",
        "AssemblyPolicy",
        "BanditAllocationPolicy",
        "DEFAULT_SPECS",
        "GcCandidate",
        "GcVictimContext",
        "GcVictimPolicy",
        "LatencyPredictorPolicy",
        "POLICY_POINTS",
        "Policy",
        "PolicyConfig",
        "PolicySpec",
        "RepairContext",
        "RepairPolicy",
        "ResolvedPolicies",
        "WearCandidate",
        "WearContext",
        "WearPolicy",
        "get_policy",
        "make_policy",
        "policy_names",
        "register_policy",
        "resolve_policies",
        # -- fleet serving layer (repro.fleet) --
        "CircuitBreaker",
        "FleetConfig",
        "FleetReport",
        "FleetSim",
        "TenantRequest",
        "build_fleet",
        "fleet_workload",
        "tenant_stream",
        # -- fault injection --
        "FaultEvent",
        "FaultInjector",
        "FaultPlan",
        "NULL_INJECTOR",
        "NullInjector",
        "make_injector",
        # -- assembly / placement core --
        "ErsLatencyAssembler",
        "FootprintModel",
        "GatheringUnit",
        "LanePool",
        "LwlRankAssembler",
        "MethodResult",
        "OptimalAssembler",
        "PgmLatencyAssembler",
        "PwlRankAssembler",
        "QstrMedAssembler",
        "QstrMedScheme",
        "RandomAssembler",
        "SequentialAssembler",
        "SpeedClass",
        "StrMedianAssembler",
        "StrRankAssembler",
        "Superblock",
        "WriteIntent",
        "WriteSource",
        "build_lane_pools",
        "eigen_sequence",
        "evaluate_assembler",
        "overhead_reduction_pct",
        "qstr_med_pair_checks",
        "str_med_pair_checks",
        # -- analysis drivers + renderers --
        "CharacterizationSeries",
        "DEFAULT_CHIPS",
        "DEFAULT_POOL_BLOCKS",
        "DEFAULT_SEED",
        "KNOBS",
        "PAPER_TABLE1",
        "PAPER_TABLE2",
        "PAPER_TABLE5",
        "PeSweepPoint",
        "PerSuperblockSeries",
        "RandomExtraSeries",
        "RepairComparison",
        "RepairPolicyResult",
        "SensitivityPoint",
        "TABLE1_METHODS",
        "TABLE5_METHODS",
        "compare_repair_policies",
        "cumulative_mean",
        "default_fault_config",
        "evaluate_variant",
        "fig13_distributions",
        "fig14_per_superblock",
        "fig15_pe_sweep",
        "fig5_characterization",
        "fig6_random_extra",
        "histogram_rows",
        "improvement_series",
        "knob_sweep",
        "render_histogram",
        "render_repair_comparison",
        "render_series_block",
        "render_table",
        "render_table1",
        "render_table2",
        "render_table5",
        "run_methods",
        "run_repair_policy",
        "seed_sweep",
        "sparkline",
        "table1_eight_directions",
        "table2_window_sweep",
        "table5_extra_latency",
        # -- observability --
        "LatencyHistogram",
        "MetricsRegistry",
        "NULL_TRACER",
        "TraceSummary",
        "Tracer",
        "export_bench_artifacts",
        # -- wall-clock performance (repro.perf) --
        "Profiler",
        "Stopwatch",
        "compare_docs",
        "layer_shares",
        "perf_scope",
        "profiled",
        "render_comparison",
        "render_profile",
        "run_suite",
        "validate_bench_doc",
        # -- workloads --
        "ArrivalProcess",
        "OpKind",
        "Replayer",
        "Request",
        "load_trace",
        "save_trace",
        "sequential_fill",
        "zipf_writes",
        # -- utilities --
        "TIB",
        "derive_seed",
        "format_bytes",
        "percentile",
    }
)


def test_all_matches_the_pinned_snapshot() -> None:
    exported = set(api.__all__)
    added = sorted(exported - EXPECTED_EXPORTS)
    removed = sorted(EXPECTED_EXPORTS - exported)
    assert not added and not removed, (
        f"repro.api surface drifted: added={added} removed={removed}; "
        "update tests/test_api_surface.py deliberately if this is intended"
    )


def test_all_has_no_duplicates() -> None:
    assert len(api.__all__) == len(set(api.__all__))


def test_every_export_resolves() -> None:
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing, f"__all__ names without a binding: {missing}"


def test_sections_partition_the_surface() -> None:
    # every export belongs to exactly one documented section
    from collections import Counter

    counts = Counter(
        name for _, names in api.API_SECTIONS for name in names
    )
    doubled = sorted(n for n, c in counts.items() if c > 1)
    assert not doubled, f"names listed in two sections: {doubled}"
    assert set(counts) == set(api.__all__)


def test_policy_section_covers_the_registry_entrypoints() -> None:
    # the names DESIGN.md's "registering a policy" walkthrough depends on
    section = dict(api.API_SECTIONS)["policy"]
    for name in (
        "Policy",
        "PolicySpec",
        "PolicyConfig",
        "register_policy",
        "get_policy",
        "policy_names",
        "resolve_policies",
    ):
        assert name in section
