"""The static-default policy fence: byte-identical to the pre-policy stack.

The policy layer's contract is that an all-unset :class:`PolicyConfig` is a
*drop-in*: same config content hashes (the sweep cache must keep hitting)
and byte-for-byte identical JSONL traces (the determinism CI compares them
verbatim).

The two columns of :data:`FENCE` are pinned differently.  The trace sha256
column is the behaviour check: it was captured at the commit immediately
before the policy layer landed and is never refreshed — if one of those
assertions fires, a refactor changed simulated behavior, which is a
correctness regression.  The config-hash column pins the serialized schema:
it moves only when a config field is added or removed.  It was re-pinned
once, when ``FtlConfig`` lost ``repair_policy`` and ``bootstrap_pe_budget``
(``steered`` and ``faulted`` serialize an explicit ``FtlConfig``); their
trace digests stayed untouched.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.exp import SimConfig, build_stack
from repro.faults import FaultPlan
from repro.ftl import FtlConfig, WearLevelingConfig
from repro.obs import Tracer
from repro.obs.export import write_jsonl
from repro.policy import PolicyConfig, PolicySpec
from repro.workloads import Replayer


def _plain() -> SimConfig:
    return SimConfig.device(seed=7, chips=4, blocks=24, requests=600)


def _steered() -> SimConfig:
    return SimConfig.device(
        seed=11,
        chips=4,
        blocks=28,
        requests=900,
        ftl=FtlConfig(
            usable_blocks_per_plane=20,
            overprovision_ratio=0.30,
            gc_low_watermark=2,
            gc_high_watermark=4,
            superpage_steering=True,
            wear_leveling=WearLevelingConfig(
                pe_gap_threshold=4, check_interval_erases=4
            ),
        ),
    )


def _faulted() -> SimConfig:
    return SimConfig.device(
        seed=7,
        chips=4,
        blocks=40,
        requests=800,
        ftl=FtlConfig(
            usable_blocks_per_plane=32,
            overprovision_ratio=0.45,
            gc_low_watermark=2,
            gc_high_watermark=4,
        ),
        faults=FaultPlan(program_fail_prob=0.004),
    )


#: (config factory, config hash, pre-policy trace sha256)
FENCE = {
    "plain": (
        _plain,
        "3a5f792a954439f5",
        "835cedb88c2b2e5594cb171a23c01a63552113bf2e2f839785eaffe54a98d8e3",
    ),
    "steered": (
        _steered,
        "423818a4d3afc28f",
        "d644c5381f69a3b79099c4bc7297d4db5a98d021143692c8e9e5ba1755288ea6",
    ),
    "faulted": (
        _faulted,
        "a50f41e7b7976f4f",
        "ab5530fed91403dda791b86b1f21189575b8acf0c6144170ee68c7fdeb94574b",
    ),
}


def trace_digest(config: SimConfig, tmp_path: Path) -> str:
    tracer = Tracer()
    stack = build_stack(config, tracer=tracer)
    Replayer(stack.ssd).replay(stack.requests())
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, tracer.events)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FENCE))
def test_default_policies_keep_pre_policy_config_hash(name: str) -> None:
    factory, config_hash, _ = FENCE[name]
    assert factory().content_hash() == config_hash


@pytest.mark.parametrize("name", sorted(FENCE))
def test_default_policies_replay_byte_identical_traces(
    name: str, tmp_path: Path
) -> None:
    factory, _, trace_sha = FENCE[name]
    assert trace_digest(factory(), tmp_path) == trace_sha


def test_explicit_static_specs_normalize_to_the_default_hash() -> None:
    # Spelling out the built-in static policies is the same config as
    # leaving every slot unset — the cache key must not fork on notation.
    explicit = _plain().with_(
        policies=PolicyConfig(
            assembly=PolicySpec("assembly.qstr"),
            allocation=PolicySpec("allocation.static"),
            gc_victim=PolicySpec("gc.min_valid"),
            wear=PolicySpec("wear.coldest"),
        )
    )
    assert explicit.policies.is_default
    assert explicit.content_hash() == FENCE["plain"][1]


#: trace sha256 of ``_faulted()`` under ``policies.repair=repair.random``,
#: captured while the deprecated ``FtlConfig.repair_policy="random"`` still
#: replayed to the same digest: the random spare draws keep consuming the
#: FTL's ("ftl", "repair") stream.
RANDOM_REPAIR_TRACE_SHA = (
    "2c49801be850b87f71117ac3444193e5862e97a6d26f5d647a7f2e7a86712f2d"
)


def test_random_repair_keeps_its_rng_stream(tmp_path: Path) -> None:
    config = _faulted().with_path("policies.repair", "repair.random")
    assert trace_digest(config, tmp_path) == RANDOM_REPAIR_TRACE_SHA


def test_non_default_policies_fork_the_config_hash() -> None:
    config = _plain().with_path("policies.allocation", "allocation.bandit")
    assert not config.policies.is_default
    assert config.content_hash() != FENCE["plain"][1]
    # and the round trip through dict form preserves the fork
    assert SimConfig.from_dict(config.to_dict()) == config
