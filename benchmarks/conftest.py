"""Shared benchmark fixtures.

The benches reproduce the paper's evaluation at its real scale (four chips,
400-block pools, paper geometry), so the probed pools and per-method
evaluations are built once per session and shared; each bench file still
prints the full table/figure it is responsible for.

Everything is constructed through the stable facade (``repro.api``): the
default :class:`SimConfig` testbed and :func:`build_stack` — the same path
the CLI and the sweep runner use.
"""

from __future__ import annotations

import pytest

from repro.api import MethodEvaluator, SimConfig, build_stack


@pytest.fixture(scope="session")
def sim_config() -> SimConfig:
    return SimConfig.testbed()


@pytest.fixture(scope="session")
def pools(sim_config):
    return build_stack(sim_config).pools()


@pytest.fixture(scope="session")
def evaluator(pools) -> MethodEvaluator:
    return MethodEvaluator(pools, seed=1)
