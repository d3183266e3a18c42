"""repro.exp — unified configuration, construction and parallel sweeps.

The experiment substrate every paper-scale result runs on:

* :class:`SimConfig` — one frozen, picklable, JSON-round-trippable config
  tree (geometry, variation, FTL, timing, workload) with a canonical
  content hash;
* :func:`build_stack` — the single construction path from a config to a
  :class:`~repro.exp.build.Stack` (chips / lane pools / formatted SSD,
  tracer and metrics registry injectable);
* the method registry (:func:`make_assembler`, :class:`MethodEvaluator`)
  shared by the analysis drivers, the benches and the sweep tasks.

The sweep runner (:mod:`repro.exp.sweep`: deterministic grid expansion
and a process-pool executor), its on-disk result cache
(:mod:`repro.exp.cache`, keyed by ``(config content hash, task params,
code-version salt)``) and the task registry (:mod:`repro.exp.tasks`) are
imported by module path: building and running a stack needs none of them.

Layering: ``exp`` sits above ``workloads`` (it builds full device stacks
and replays workloads through them) and below ``analysis`` (whose drivers
construct their testbeds through it).
"""

from repro.exp.build import build_fleet, build_stack
from repro.exp.config import ALLOCATOR_KINDS, SimConfig, WorkloadConfig
from repro.exp.methods import DEFAULT_METHODS, MethodEvaluator, MethodRow, make_assembler

__all__ = [
    # config
    "SimConfig",
    "WorkloadConfig",
    "ALLOCATOR_KINDS",
    # construction
    "build_fleet",
    "build_stack",
    # methods
    "DEFAULT_METHODS",
    "MethodEvaluator",
    "MethodRow",
    "make_assembler",
]
