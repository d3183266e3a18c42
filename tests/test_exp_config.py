"""SimConfig: round-trip serialization, functional updates, content hash."""

import os
import subprocess
import sys

import pytest

from repro.exp import ALLOCATOR_KINDS, SimConfig, WorkloadConfig
from repro.ftl import FtlConfig, WearLevelingConfig
from repro.nand import PAPER_GEOMETRY


class TestValidation:
    def test_defaults_are_the_paper_testbed(self):
        config = SimConfig()
        assert config.seed == 2024
        assert config.chips == 4
        assert config.pool_blocks == 400
        assert config.geometry == PAPER_GEOMETRY
        assert config.allocator in ALLOCATOR_KINDS

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(chips=1)
        with pytest.raises(ValueError):
            SimConfig(pool_blocks=0)
        with pytest.raises(ValueError):
            SimConfig(pe_cycles=-1)
        with pytest.raises(ValueError):
            SimConfig(allocator="greedy")
        with pytest.raises(ValueError):
            WorkloadConfig(kind="trace")  # no trace_path

    def test_assembly_policy_needs_the_qstr_allocator(self):
        # baseline allocators ignore the assembly policy, so the pair would
        # fork the config hash without changing the run
        with pytest.raises(ValueError, match="needs allocator 'qstr'"):
            SimConfig.device(allocator="random").with_path(
                "policies.assembly", "assembly.predictor"
            )
        SimConfig.device(allocator="random")
        SimConfig.device(allocator="random").with_path(
            "policies.assembly", "assembly.qstr"  # the default: normalized away
        )
        SimConfig.device().with_path("policies.assembly", "assembly.predictor")

    @pytest.mark.parametrize(
        "allocator", [kind for kind in ALLOCATOR_KINDS if kind != "qstr"]
    )
    def test_every_baseline_allocator_rejects_an_assembly_policy(self, allocator):
        with pytest.raises(ValueError, match=f"allocator {allocator!r} ignores it"):
            SimConfig.device(allocator=allocator).with_path(
                "policies.assembly", "assembly.predictor"
            )

    def test_explicit_default_assembly_policy_keeps_the_baseline_hash(self):
        plain = SimConfig.device(allocator="random")
        explicit = plain.with_path("policies.assembly", "assembly.qstr")
        assert explicit.policies.assembly is None
        assert explicit == plain
        assert explicit.content_hash() == plain.content_hash()

    def test_swapping_to_a_baseline_allocator_revalidates(self):
        # the sweep path: an allocator axis over a base that sets the policy
        steered = SimConfig.device().with_path(
            "policies.assembly", "assembly.predictor"
        )
        with pytest.raises(ValueError, match="needs allocator 'qstr'"):
            steered.with_(allocator="sequential")

    def test_from_dict_rejects_assembly_policy_under_baseline_allocator(self):
        doc = (
            SimConfig.device()
            .with_path("policies.assembly", "assembly.predictor")
            .to_dict()
        )
        doc["allocator"] = "pgm_sorted"
        with pytest.raises(ValueError, match="needs allocator 'qstr'"):
            SimConfig.from_dict(doc)

    def test_frozen(self):
        with pytest.raises(Exception):
            SimConfig().seed = 1  # type: ignore[misc]


class TestRoundTrip:
    def test_testbed_round_trip(self):
        config = SimConfig.testbed(seed=7, chips=3, pool_blocks=25, pe_cycles=1500)
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_device_round_trip(self):
        config = SimConfig.device(seed=5, chips=3, blocks=20, allocator="random")
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_round_trip_with_explicit_ftl(self):
        ftl = FtlConfig(
            usable_blocks_per_plane=16,
            wear_leveling=WearLevelingConfig(),
        )
        config = SimConfig.device(blocks=20).with_(ftl=ftl)
        restored = SimConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.ftl is not None
        assert restored.ftl.wear_leveling is not None
        assert restored.ftl.wear_leveling.pe_gap_threshold == 64

    def test_round_trip_through_json_text(self):
        import json

        config = SimConfig.device(seed=3, trace_path="traces/a.csv")
        assert SimConfig.from_dict(json.loads(config.canonical_json())) == config

    def test_from_dict_rejects_unknown_fields(self):
        data = SimConfig().to_dict()
        data["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            SimConfig.from_dict(data)


class TestFunctionalUpdates:
    def test_with_replaces_top_level(self):
        config = SimConfig().with_(seed=9, pe_cycles=100)
        assert (config.seed, config.pe_cycles) == (9, 100)

    def test_with_path_nested(self):
        config = SimConfig().with_path("variation.sigma_wl_noise_us", 3.5)
        assert config.variation.sigma_wl_noise_us == 3.5
        assert SimConfig().variation.sigma_wl_noise_us != 3.5

    def test_with_path_coerces_int_to_float(self):
        config = SimConfig().with_path("workload.interarrival_us", 500)
        assert config.workload.interarrival_us == 500.0
        assert isinstance(config.workload.interarrival_us, float)

    def test_with_path_unknown_field_raises(self):
        with pytest.raises(ValueError):
            SimConfig().with_path("variation.nope", 1)

    def test_has_path(self):
        config = SimConfig()
        assert config.has_path("seed")
        assert config.has_path("workload.interarrival_us")
        assert config.has_path("variation.sigma_wl_noise_us")
        assert not config.has_path("methods")
        assert not config.has_path("workload.nope")


class TestContentHash:
    def test_equal_configs_equal_hash(self):
        a = SimConfig.testbed(seed=3, chips=2, pool_blocks=10)
        b = SimConfig.testbed(seed=3, chips=2, pool_blocks=10)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_any_field_change_changes_hash(self):
        base = SimConfig()
        variants = [
            base.with_(seed=1),
            base.with_(pe_cycles=100),
            base.with_(allocator="random"),
            base.with_path("variation.sigma_wl_noise_us", 9.0),
            base.with_path("workload.overwrite_fraction", 0.1),
        ]
        hashes = {c.content_hash() for c in variants} | {base.content_hash()}
        assert len(hashes) == len(variants) + 1

    def test_hash_survives_round_trip(self):
        config = SimConfig.device(seed=11, blocks=30)
        assert SimConfig.from_dict(config.to_dict()).content_hash() == config.content_hash()

    def test_hash_stable_across_process_boundary(self):
        """The content address must be identical in a fresh interpreter."""
        config = SimConfig.testbed(seed=3, chips=2, pool_blocks=10)
        code = (
            "from repro.exp import SimConfig;"
            "print(SimConfig.testbed(seed=3, chips=2, pool_blocks=10).content_hash())"
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="random")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout.strip() == config.content_hash()

    def test_hash_stable_after_pickle(self):
        import pickle

        config = SimConfig.device(seed=8, blocks=24)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.content_hash() == config.content_hash()
