"""repro.exp — unified configuration, construction and parallel sweeps.

The experiment substrate every paper-scale result runs on:

* :class:`SimConfig` — one frozen, picklable, JSON-round-trippable config
  tree (geometry, variation, FTL, timing, workload) with a canonical
  content hash;
* :func:`build_stack` — the single construction path from a config to a
  :class:`Stack` (chips / lane pools / formatted SSD, tracer and metrics
  registry injectable);
* :class:`Sweep` / :func:`run` — deterministic grid expansion and a
  process-pool executor with an on-disk result cache keyed by
  ``(config content hash, task params, code-version salt)``;
* the method registry (:func:`make_assembler`, :class:`MethodEvaluator`)
  shared by the analysis drivers, the benches and the sweep tasks.

Layering: ``exp`` sits above ``workloads`` (it builds full device stacks
and replays workloads through them) and below ``analysis`` (whose drivers
construct their testbeds through it).
"""

from repro.exp.build import (
    Stack,
    build_fleet,
    build_stack,
    derived_ftl_config,
    synthetic_requests,
)
from repro.exp.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    canonical_json,
    cell_key,
    code_salt,
    default_cache_dir,
    to_jsonable,
)
from repro.exp.config import (
    ALLOCATOR_KINDS,
    SimConfig,
    WorkloadConfig,
)
from repro.exp.methods import (
    MethodEvaluator,
    MethodRow,
    make_assembler,
    method_names,
)
from repro.exp.sweep import (
    Axis,
    Cell,
    CellResult,
    CellTimeoutError,
    Sweep,
    SweepProgress,
    SweepResult,
    dig,
    run,
    worker_entrypoint,
)
from repro.exp.tasks import DEFAULT_METHODS, TASKS, Task, register_task

__all__ = [
    # config
    "SimConfig",
    "WorkloadConfig",
    "ALLOCATOR_KINDS",
    # construction
    "Stack",
    "build_fleet",
    "build_stack",
    "derived_ftl_config",
    "synthetic_requests",
    # methods
    "MethodEvaluator",
    "MethodRow",
    "make_assembler",
    "method_names",
    # sweep
    "Sweep",
    "Axis",
    "Cell",
    "CellResult",
    "CellTimeoutError",
    "SweepProgress",
    "SweepResult",
    "run",
    "dig",
    "worker_entrypoint",
    # tasks
    "TASKS",
    "Task",
    "register_task",
    "DEFAULT_METHODS",
    # cache
    "ResultCache",
    "cell_key",
    "code_salt",
    "canonical_json",
    "to_jsonable",
    "default_cache_dir",
    "DEFAULT_CACHE_DIR",
]
