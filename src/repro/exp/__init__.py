"""repro.exp — unified configuration, construction and parallel sweeps.

The experiment substrate every paper-scale result runs on:

* :class:`SimConfig` — one frozen, picklable, JSON-round-trippable config
  tree (geometry, variation, FTL, timing, workload) with a canonical
  content hash;
* :func:`build_stack` — the single construction path from a config to a
  :class:`~repro.exp.build.Stack` (chips / lane pools / formatted SSD,
  tracer and metrics registry injectable);
* :class:`Sweep` / :func:`run` — deterministic grid expansion and a
  process-pool executor with an on-disk result cache keyed by
  ``(config content hash, task params, code-version salt)``;
* the method registry (:func:`make_assembler`, :class:`MethodEvaluator`)
  shared by the analysis drivers, the benches and the sweep tasks.

Layering: ``exp`` sits above ``workloads`` (it builds full device stacks
and replays workloads through them) and below ``analysis`` (whose drivers
construct their testbeds through it).
"""

from repro.exp.build import build_fleet, build_stack
from repro.exp.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cell_key,
    code_salt,
    default_cache_dir,
)
from repro.exp.config import ALLOCATOR_KINDS, SimConfig, WorkloadConfig
from repro.exp.methods import MethodEvaluator, MethodRow, make_assembler
from repro.exp.sweep import Sweep, SweepProgress, dig, run
from repro.exp.tasks import DEFAULT_METHODS, TASKS

__all__ = [
    # config
    "SimConfig",
    "WorkloadConfig",
    "ALLOCATOR_KINDS",
    # construction
    "build_fleet",
    "build_stack",
    # methods
    "MethodEvaluator",
    "MethodRow",
    "make_assembler",
    # sweep
    "Sweep",
    "SweepProgress",
    "run",
    "dig",
    # tasks
    "TASKS",
    "DEFAULT_METHODS",
    # cache
    "ResultCache",
    "cell_key",
    "code_salt",
    "default_cache_dir",
    "DEFAULT_CACHE_DIR",
]
