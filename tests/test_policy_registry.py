"""The policy protocol: specs, registry, pickling, learned determinism.

Covers the plumbing the rest of the suite builds on: text/dict round trips
of :class:`PolicySpec`/:class:`PolicyConfig`, loud failures on unknown
names, the registry's duplicate/point validation, pickling of both learned
policies (sweep workers receive them via configs), and the bandit's pinned
seed-derived exploration stream.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import SpeedClass, WriteIntent, WriteSource
from repro.core.assembler import OnDemandAssembler
from repro.core.catalog import BlockCatalog
from repro.core.records import BlockRecord
from repro.exp import SimConfig, Sweep, run
from repro.policy import (
    DEFAULT_SPECS,
    POLICY_POINTS,
    AllocationContext,
    AllocationPolicy,
    AssemblyContext,
    BanditAllocationPolicy,
    LatencyPredictorPolicy,
    PolicyConfig,
    PolicySpec,
    get_policy,
    make_policy,
    policy_names,
    register_policy,
    resolve_policies,
)
from repro.utils.bitvec import BitVector


# ---------------------------------------------------------------- PolicySpec


class TestPolicySpec:
    def test_text_round_trip_with_params(self):
        spec = PolicySpec.from_text("allocation.bandit:epsilon=0.25,window=8")
        assert spec.name == "allocation.bandit"
        assert spec.param_dict() == {"epsilon": 0.25, "window": 8}
        assert PolicySpec.from_text(spec.text()) == spec

    def test_dict_round_trip(self):
        spec = PolicySpec("assembly.predictor", {"warmup": 16})
        assert PolicySpec.from_dict(spec.to_dict()) == spec

    def test_params_are_key_sorted_for_stable_hashing(self):
        a = PolicySpec("assembly.predictor", {"warmup": 16, "alpha": 0.5})
        b = PolicySpec("assembly.predictor", {"alpha": 0.5, "warmup": 16})
        assert a == b and a.text() == b.text()

    def test_name_without_point_prefix_rejected(self):
        with pytest.raises(ValueError, match="<point>"):
            PolicySpec("bandit")

    def test_duplicate_param_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PolicySpec("allocation.bandit", (("epsilon", 0.1), ("epsilon", 0.2)))


# -------------------------------------------------------------- PolicyConfig


class TestPolicyConfig:
    def test_explicit_defaults_normalize_to_unset(self):
        config = PolicyConfig(
            assembly="assembly.qstr", allocation=DEFAULT_SPECS["allocation"]
        )
        assert config.is_default
        assert config.assembly is None and config.allocation is None

    def test_explicit_default_repair_normalizes_to_unset(self):
        # repair.qstr is the repair default like any other slot's default,
        # so spelling it out must not fork the sweep cache key
        config = PolicyConfig(repair="repair.qstr")
        assert config.is_default and config.repair is None
        unset = SimConfig.device(seed=7, chips=4, blocks=24)
        explicit = unset.with_path("policies.repair", "repair.qstr")
        assert explicit == unset
        assert explicit.content_hash() == unset.content_hash() == "847447651dd50c0e"

    def test_point_prefix_mismatch_rejected(self):
        with pytest.raises(ValueError, match="assembly"):
            PolicyConfig(assembly="repair.qstr")

    def test_dict_round_trip_and_unknown_fields(self):
        config = PolicyConfig(allocation="allocation.bandit:epsilon=0.3")
        assert PolicyConfig.from_dict(config.to_dict()) == config
        # wear rotation is an FTL mechanic, not a slot: a saved config that
        # names it is refused, never silently ignored
        with pytest.raises(ValueError, match="unknown PolicyConfig fields"):
            PolicyConfig.from_dict({"wear": {"name": "wear.rotate"}})

    def test_with_path_coerces_spec_text(self):
        config = SimConfig.device(seed=3, blocks=24).with_path(
            "policies.allocation", "allocation.bandit:epsilon=0.1"
        )
        assert config.policies.allocation == PolicySpec(
            "allocation.bandit", {"epsilon": 0.1}
        )


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_every_point_has_a_registered_default(self):
        for point in POLICY_POINTS:
            names = policy_names(point)
            assert DEFAULT_SPECS[point].name in names

    def test_unknown_name_raises_with_inventory(self):
        with pytest.raises(ValueError, match="registered"):
            get_policy("assembly.nope")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown policy point"):
            policy_names("steering")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy("allocation.bandit")
            class Impostor(AllocationPolicy):
                pass

    def test_wrong_base_class_rejected(self):
        with pytest.raises(TypeError, match="'repair' policy class"):

            @register_policy("repair.upstart")
            class NotARepairPolicy(AllocationPolicy):
                pass

    def test_unknown_point_prefix_rejected(self):
        with pytest.raises(ValueError, match="must start with one of"):
            register_policy("gc.upstart")

    def test_make_policy_instantiates_with_seed(self):
        policy = make_policy(PolicySpec("allocation.bandit"), seed=17)
        assert isinstance(policy, BanditAllocationPolicy)
        assert policy.seed == 17 and policy.short_name == "bandit"

    def test_resolve_fills_every_point(self):
        resolved = resolve_policies(PolicyConfig(), seed=5)
        assert resolved.allocation.name == "allocation.static"
        assert isinstance(resolved.allocation, AllocationPolicy)
        assert resolved.repair.name == "repair.qstr"

    @pytest.mark.parametrize(
        "text",
        [
            "assembly.qstr:depth=9",
            "allocation.bandit:epsilonn=0.2",
            "assembly.predictor:alpha=0.5,warm=3",
            "repair.random:seed=1",
        ],
    )
    def test_a_parameter_nothing_reads_is_refused(self, text):
        # accepted, it would fork the config hash and run the defaults
        with pytest.raises(ValueError, match="reads no parameter"):
            make_policy(PolicySpec.from_text(text))


# ------------------------------------------------------------------ pickling


# ------------------------------------------------------- eigen pair check


def _record(lane: int, block: int, pgm: float, bits) -> BlockRecord:
    return BlockRecord(lane, 0, block, pgm, BitVector(bits))


def _assembly_context(candidates) -> AssemblyContext:
    return AssemblyContext(
        speed_class=SpeedClass.FAST,
        reference=_record(0, 0, 100.0, [1, 1, 0, 0]),
        candidates=tuple(candidates),
        lane=1,
    )


#: the static pair check and the predictor before its warmup is reached
PAIR_CHECK_SPECS = ("assembly.qstr", "assembly.predictor")


class TestEigenPairCheck:
    @pytest.mark.parametrize("name", PAIR_CHECK_SPECS)
    def test_picks_the_first_closest_candidate(self, name):
        policy = make_policy(PolicySpec(name), seed=3)
        candidates = [
            _record(1, 0, 200.0, [0, 0, 1, 1]),
            _record(1, 1, 210.0, [1, 0, 0, 0]),
            _record(1, 2, 220.0, [0, 1, 0, 0]),
        ]
        assert policy.choose(_assembly_context(candidates)) is candidates[1]

    @pytest.mark.parametrize("name", PAIR_CHECK_SPECS)
    def test_rejects_an_empty_candidate_slice(self, name):
        policy = make_policy(PolicySpec(name), seed=3)
        with pytest.raises(ValueError, match="no candidates"):
            policy.choose(_assembly_context(()))

    def test_qstr_chooser_assembles_like_the_assembler_alone(self):
        def catalogs():
            out = [BlockCatalog(lane) for lane in range(3)]
            eigens = ([1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0])
            for lane, catalog in enumerate(out):
                for block in range(6):
                    bits = eigens[(block * (lane + 1)) % len(eigens)]
                    catalog.add(_record(lane, block, 100.0 + 7 * block + lane, bits))
            return out

        def drain(chooser):
            assembler = OnDemandAssembler(catalogs(), candidate_depth=3, chooser=chooser)
            keys = []
            for index in range(6):
                speed = SpeedClass.FAST if index % 2 == 0 else SpeedClass.SLOW
                choice = assembler.assemble(speed)
                keys.append(tuple(member.key() for member in choice.members))
            return keys, assembler.total_pair_checks

        policy = make_policy(PolicySpec("assembly.qstr"), seed=3)
        assert drain(policy) == drain(None)


def _bandit_context(pages: int = 1) -> AllocationContext:
    return AllocationContext(
        intent=WriteIntent(source=WriteSource.HOST, pages=pages),
        base_class=SpeedClass.FAST,
        prefers_fast=pages <= 8,
        steering_enabled=False,
        predictor_ready=False,
    )


class TestPickling:
    def test_predictor_pickles_with_learned_state(self):
        policy = make_policy(
            PolicySpec("assembly.predictor", {"warmup": 2, "alpha": 0.5}), seed=9
        )
        assert isinstance(policy, LatencyPredictorPolicy)
        policy.observe_program(0, 0, 3, 0, 120.0)
        policy.observe_program(0, 0, 3, 1, 160.0)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.observations == policy.observations == 2
        assert clone._estimates == policy._estimates
        assert clone.spec == policy.spec and clone.seed == policy.seed

    def test_bandit_pickles_and_streams_stay_in_lockstep(self):
        policy = make_policy(
            PolicySpec("allocation.bandit", {"epsilon": 0.5}), seed=13
        )
        for _ in range(10):
            policy.place(_bandit_context())
        policy.observe_flush("fast", 800.0, 4)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.decisions == policy.decisions == 10
        assert clone._mean_us == policy._mean_us
        # the pickled RNG must resume mid-stream, not restart
        original = [policy.place(_bandit_context()).speed_class for _ in range(20)]
        resumed = [clone.place(_bandit_context()).speed_class for _ in range(20)]
        assert original == resumed


# ------------------------------------------------------- bandit determinism


class TestBanditDeterminism:
    def test_same_seed_same_decision_sequence(self):
        a = make_policy(PolicySpec("allocation.bandit", {"epsilon": 0.4}), seed=21)
        b = make_policy(PolicySpec("allocation.bandit", {"epsilon": 0.4}), seed=21)
        seq_a = [a.place(_bandit_context()).speed_class for _ in range(64)]
        seq_b = [b.place(_bandit_context()).speed_class for _ in range(64)]
        assert seq_a == seq_b
        assert a.explorations == b.explorations > 0

    def test_different_seeds_diverge(self):
        a = make_policy(PolicySpec("allocation.bandit", {"epsilon": 0.4}), seed=21)
        b = make_policy(PolicySpec("allocation.bandit", {"epsilon": 0.4}), seed=22)
        seq_a = [a.place(_bandit_context()).speed_class for _ in range(64)]
        seq_b = [b.place(_bandit_context()).speed_class for _ in range(64)]
        assert seq_a != seq_b

    def test_non_host_writes_pass_through_untouched(self):
        policy = make_policy(PolicySpec("allocation.bandit"), seed=3)
        decision = policy.place(
            AllocationContext(
                intent=WriteIntent(source=WriteSource.GC, pages=4),
                base_class=SpeedClass.SLOW,
                prefers_fast=True,
                steering_enabled=False,
                predictor_ready=False,
            )
        )
        assert decision.speed_class is SpeedClass.SLOW
        assert policy.decisions == 0


# ---------------------------------------------- sweeps across the process pool


LEARNED_BASE = (
    SimConfig.device(seed=5, chips=3, blocks=24, requests=200)
    .with_path("policies.assembly", "assembly.predictor:warmup=32")
    .with_path("policies.allocation", "allocation.bandit:epsilon=0.2")
)


class TestLearnedSweeps:
    def test_learned_policies_serial_vs_parallel_bit_identical(self):
        sweep = Sweep("replay", base=LEARNED_BASE).over("seed", range(2))
        serial = run(sweep, workers=1)
        parallel = run(sweep, workers=2)
        assert [c.result for c in serial.cells] == [
            c.result for c in parallel.cells
        ]

    def test_learned_cells_fork_the_cache_key_from_static(self):
        static = SimConfig.device(seed=5, chips=3, blocks=24, requests=200)
        hashes = {
            static.content_hash(),
            LEARNED_BASE.content_hash(),
            LEARNED_BASE.with_path(
                "policies.allocation", "allocation.bandit:epsilon=0.5"
            ).content_hash(),
        }
        assert len(hashes) == 3
