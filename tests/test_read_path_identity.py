"""Read-path pins: a host read charges the die and block that hold its page.

The FENCE configs (``tests/test_policy_identity.py``) and the backend
identity pins replay fills and zipf overwrites only, so no other pinned
digest contains a host read: a wrong die or block in a ``chip_read`` span,
or a read charged to the wrong lane's die, would go unnoticed there.

The two stacks below load the read path the way the benchmark's
``device_faulted_mixed`` workload does — a sequential fill, then a 50/50
read/write mix whose reads target pages the mix has written:

* ``faulted`` runs superpage steering, RAID-4 parity and program fails, at
  a seed that repairs at least one superblock mid-run;
* ``plain`` is a default device, the vector fast path's config class, so
  ``VectorFtl.read`` serves its buffer hits.

Each stack is pinned twice: the sha256 of its traced JSONL (every
``chip_read`` span names the chip and block it sensed) and the sha256 of
its untraced replay state (every request latency, per-die and per-channel
busy time, the FTL metrics).  The digests were captured before the device
stopped resolving each read's slot a second time and before tR was
memoized; both backends must land on them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.exp import SimConfig, build_stack
from repro.exp.build import Stack, derived_ftl_config
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.obs.export import write_jsonl
from repro.workloads import Replayer
from repro.workloads.model import Request
from repro.workloads.synthetic import ArrivalProcess, mixed_read_write, sequential_fill

#: requests in the read/write mix after the fill
MIX_REQUESTS = 600
INTERARRIVAL_US = 2000.0


def _faulted() -> SimConfig:
    config = SimConfig.device(seed=5, chips=4, blocks=40)
    ftl = dataclasses.replace(
        derived_ftl_config(config.geometry),
        superpage_steering=True,
        parity_protection=True,
        overprovision_ratio=0.5,
    )
    return config.with_(ftl=ftl, faults=FaultPlan(program_fail_prob=0.002))


def _plain() -> SimConfig:
    return SimConfig.device(seed=7, chips=4, blocks=24)


#: name -> (config factory, traced JSONL sha256, untraced replay-state sha256)
PINS = {
    "faulted": (
        _faulted,
        "6e352853623f4e4b90da89ef37fac807610577f9b0d3ece8d434d0d8d12be715",
        "3541d06016ca6ebb75ffbc42f56fd05fbb613984fe681859c60b0cf42d0fbe2f",
    ),
    "plain": (
        _plain,
        "351b1052c4e5240cf463b6eab1100aad57d9f9f52601e0d12137376d1c4a3e71",
        "6c9794f0118c55a8c1900c38269e1f9c6f70be65efbe36ce225df1c0025c4b9b",
    ),
}

BACKENDS = ("scalar", "vector")


def _requests(stack: Stack) -> List[Request]:
    pages = stack.ftl.logical_pages
    arrivals = ArrivalProcess(mean_interarrival_us=INTERARRIVAL_US)
    seed = stack.config.seed
    fill = sequential_fill(pages, arrivals=arrivals, seed=seed)
    mix = mixed_read_write(
        pages, MIX_REQUESTS, read_fraction=0.5, arrivals=arrivals, seed=seed + 1
    )
    offset = fill[-1].time_us
    return fill + [dataclasses.replace(r, time_us=r.time_us + offset) for r in mix]


def trace_digest(config: SimConfig, tmp_path: Path) -> str:
    tracer = Tracer()
    stack = build_stack(config, tracer=tracer)
    Replayer(stack.ssd).replay(_requests(stack))
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, tracer.events)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def replay_state(config: SimConfig) -> Dict[str, Any]:
    """Everything observable after an untraced replay, exactly."""
    stack = build_stack(config)
    report = Replayer(stack.ssd).replay(_requests(stack))
    ssd = stack.ssd
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
        "ftl": ssd.ftl.metrics.summary(),
    }


def state_digest(state: Dict[str, Any]) -> str:
    document = json.dumps(state, sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PINS))
def test_read_heavy_trace_is_pinned(name: str, backend: str, tmp_path: Path) -> None:
    factory, trace_sha, _ = PINS[name]
    assert trace_digest(factory().with_(backend=backend), tmp_path) == trace_sha


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PINS))
def test_read_heavy_replay_state_is_pinned(name: str, backend: str) -> None:
    factory, _, state_sha = PINS[name]
    state = replay_state(factory().with_(backend=backend))
    ftl = state["ftl"]
    # the stacks load what they are pinned for
    assert ftl["pages_read"] > 0
    if name == "faulted":
        assert ftl["sb_repairs"] >= 1
    assert state_digest(state) == state_sha
