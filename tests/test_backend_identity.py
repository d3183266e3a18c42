"""End-to-end backend identity: ``--backend vector`` is byte-for-byte scalar.

The vector engine's acceptance bar is the strongest equivalence the repo can
state: the same pinned configs that fence the policy layer
(``tests/test_policy_identity.py``) must produce *identical* JSONL traces,
metric summaries, and config content hashes when replayed on the vector
backend.  The hex digests below are the same pre-policy pins — scalar and
vector must both land on them, so a drift in either backend fires here.

The untraced comparisons cover the bulk write path (no tracer, no
timelines), which takes different code than the traced event-emitting path;
the GC-heavy config forces collections mid-replay so flush/GC boundaries
are compared too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.exp import SimConfig, Sweep, build_stack
from repro.exp import run as run_sweep
from repro.kernels import VectorFtl, VectorSsd
from repro.obs import Tracer
from repro.obs.export import write_jsonl
from repro.workloads import Replayer
from tests.test_policy_identity import _gc_heavy

#: the test_policy_identity FENCE pins, which the vector backend must hit too
VECTOR_FENCE = {
    "plain": "835cedb88c2b2e5594cb171a23c01a63552113bf2e2f839785eaffe54a98d8e3",
}

PLAIN_CONFIG_HASH = "3a5f792a954439f5"


def _plain() -> SimConfig:
    return SimConfig.device(seed=7, chips=4, blocks=24, requests=600)


def _trace_digest(config: SimConfig, tmp_path: Path) -> str:
    tracer = Tracer()
    stack = build_stack(config, tracer=tracer)
    Replayer(stack.ssd).replay(stack.requests())
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, tracer.events)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replay_state(config: SimConfig) -> dict:
    """Everything observable after an untraced replay, exactly."""
    stack = build_stack(config)
    report = Replayer(stack.ssd).replay(stack.requests())
    ssd = stack.ssd
    ftl = ssd.ftl
    return {
        "summary": report.summary(),
        "latencies": report.latencies(),
        "last_finish": ssd.metrics.last_finish_us,
        "channels": {
            name: (ch.busy_until_us, ch.busy_time_us)
            for name, ch in ssd.channels.items()
        },
        "dies": {
            lane: (die.busy_until_us, die.busy_time_us)
            for lane, die in ssd.dies.items()
        },
        "ftl": ftl.metrics.summary(),
        "map": sorted(
            (lpn, loc.superblock_id, loc.slot)
            for lpn, loc in ftl.mapper.iter_mapped()
        ),
    }


def test_backend_field_does_not_fork_the_config_hash():
    config = _plain()
    assert config.content_hash() == PLAIN_CONFIG_HASH
    assert config.with_(backend="vector").content_hash() == PLAIN_CONFIG_HASH


def test_vector_stack_actually_swaps_the_engine(monkeypatch):
    # a default-scalar config must build the scalar engine even when the
    # suite itself runs under REPRO_BACKEND=vector (the CI vector job)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    stack = build_stack(_plain().with_(backend="vector"))
    assert isinstance(stack.ssd, VectorSsd)
    assert isinstance(stack.ftl, VectorFtl)
    scalar = build_stack(_plain())
    assert not isinstance(scalar.ssd, VectorSsd)


def test_env_var_upgrades_the_default_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "vector")
    stack = build_stack(_plain())
    assert isinstance(stack.ssd, VectorSsd)
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ValueError):
        build_stack(_plain()).ssd


@pytest.mark.parametrize("name", sorted(VECTOR_FENCE))
def test_vector_backend_reproduces_the_pinned_trace(name, tmp_path):
    config = _plain().with_(backend="vector")
    assert _trace_digest(config, tmp_path) == VECTOR_FENCE[name]


@pytest.mark.parametrize("factory", [_plain, _gc_heavy], ids=["plain", "gc_heavy"])
def test_untraced_replay_state_identical_across_backends(factory):
    scalar = _replay_state(factory())
    vector = _replay_state(factory().with_(backend="vector"))
    # exact equality — floats included; json round-trip catches NaN drift
    assert json.dumps(scalar, sort_keys=True) == json.dumps(vector, sort_keys=True)


def test_six_cell_sweep_identical_across_backends():
    def cells_of(backend: str):
        base = SimConfig.device(seed=5, chips=2, blocks=16, requests=300)
        if backend != "scalar":
            base = base.with_(backend=backend)
        sweep = Sweep("replay", base=base).over("seed", list(range(6)))
        result = run_sweep(sweep, workers=1, cache=None)
        assert not result.failures
        return [
            (item.cell.config_hash, json.dumps(item.result, sort_keys=True))
            for item in result.cells
        ]

    scalar_cells = cells_of("scalar")
    vector_cells = cells_of("vector")
    assert len(scalar_cells) == 6
    for (scalar_hash, scalar_doc), (vector_hash, vector_doc) in zip(
        scalar_cells, vector_cells
    ):
        # same cache key (backend is compare=False) and same bytes out
        assert scalar_hash == vector_hash
        assert scalar_doc == vector_doc
