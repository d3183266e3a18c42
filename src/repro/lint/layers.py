"""The declarative import-layer map for the ``repro`` package.

The simulator is layered as a DAG::

    utils → faults → nand → characterization → assembly → core → policy → ftl → ssd
        ↘ obs ————— (importable by core / ftl / ssd / …) ———————→ workloads
        ↘ perf ——— (importable by every simulation layer) ——————→ kernels / fleet
                                                               → exp
                                                               → analysis
                                                               → lint / cli

Each entry in :data:`LAYER_DEPENDENCIES` names the subpackages a layer may
import from (its own layer is always allowed).  ``characterization``,
``assembly`` and ``core`` form one conceptual band above ``nand``; within the
band the order is characterization < assembly < core, matching how signatures
feed assemblers feed the placement core.  ``obs`` (tracing, histograms,
metrics registry) sits directly above ``utils`` so every simulation layer
from ``core`` up can emit into it without inverting the DAG.  ``perf``
(wall-clock profiling — the only package allowed to read the host clock)
likewise sits directly above ``utils``: every layer calls its no-op-when-
inactive ``perf_scope`` hooks, so the fence must live below them all.
``policy`` (the pluggable decision-policy protocol and its built-in
instances) sits between ``core`` and ``ftl``: policies consume core types
(block records, speed classes) and are *consumed by* the FTL, which resolves
``SimConfig.policies`` specs into instances at construction time.  ``faults``
(deterministic fault plans and injectors) also sits directly above ``utils``:
chips consult an injector on every operation, so the package must live
*below* ``nand``, and the layers that schedule faults (``exp`` configs,
``analysis`` experiments) reach down to it like they reach ``nand``.  ``exp``
(the unified config / construction / sweep substrate) sits above
``workloads`` — it builds full device stacks and replays workloads through
them — and below ``analysis``, whose experiment drivers construct their
testbeds through it.  ``kernels`` (the vectorized batch twins of the scalar
hot paths, plus the ``backend="vector"`` engine built from them) sits at the
same height as ``exp``: the engine subclasses the FTL/SSD and generates
workload prefixes, so it may import everything up to ``workloads``, and only
``exp`` (which swaps the engine in behind ``SimConfig.backend``) and the
layers above reach down into it.  ``fleet`` (the sharded multi-SSD serving
layer) sits in the same band: it serves tenant workloads over fully built
devices, so it may import everything up to ``workloads``, while ``exp``
owns its construction (``SimConfig.fleet`` → ``build_fleet``) and is the
only layer that reaches down into it.  The fleet scheduler runs entirely in
simulated time — the wall-clock fence (``perf`` below, the whole-program
taint rules) applies to it like any simulation layer.

:data:`LAYER_EXCEPTIONS` lists the few reviewed module-level edges that cross
the map, each with a justification here rather than in the importing file.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: subpackage -> subpackages it may import from (besides itself and stdlib).
LAYER_DEPENDENCIES: Dict[str, FrozenSet[str]] = {
    "utils": frozenset(),
    "obs": frozenset({"perf", "utils"}),
    "perf": frozenset({"utils"}),
    "faults": frozenset({"utils"}),
    "nand": frozenset({"perf", "faults", "utils"}),
    "characterization": frozenset({"perf", "faults", "nand", "utils"}),
    "assembly": frozenset(
        {"perf", "faults", "characterization", "nand", "utils"}
    ),
    "core": frozenset(
        {"obs", "perf", "faults", "assembly", "characterization", "nand", "utils"}
    ),
    "policy": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "ftl": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "ssd": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "workloads": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "ssd",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "kernels": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "workloads",
            "ssd",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "fleet": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "workloads",
            "ssd",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "exp": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "fleet",
            "kernels",
            "workloads",
            "ssd",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "analysis": frozenset(
        {
            "obs",
            "perf",
            "faults",
            "exp",
            "workloads",
            "ssd",
            "ftl",
            "policy",
            "core",
            "assembly",
            "characterization",
            "nand",
            "utils",
        }
    ),
    "lint": frozenset({"utils"}),
}

#: top-level aggregator modules allowed to import from any layer.
TOP_LEVEL_MODULES: FrozenSet[str] = frozenset(
    {"repro", "repro.cli", "repro.__main__"}
)

#: (importing subpackage, imported dotted target below ``repro.``) pairs that
#: are reviewed exceptions to the map:
#:
#: * ``ssd → workloads.model`` — the device consumes the pure ``Request`` /
#:   ``OpKind`` data model (no behavior, no back-import at runtime; the
#:   reverse edge in ``workloads.replay`` is ``TYPE_CHECKING``-only).
#: * ``perf → exp.* / workloads.replay / assembly.signatures`` — the pinned
#:   ``repro bench`` suite (``perf.bench``) drives full device stacks and
#:   sweeps to time them.  All six edges are *deferred* (function-local)
#:   imports that execute only when ``run_suite`` is invoked from the CLI,
#:   never at import of the profiling fence the lower layers use, so the
#:   runtime import graph stays acyclic.
LAYER_EXCEPTIONS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("ssd", "workloads.model"),
        ("perf", "exp.build"),
        ("perf", "exp.cache"),
        ("perf", "exp.config"),
        ("perf", "exp.sweep"),
        ("perf", "workloads.replay"),
        ("perf", "assembly.signatures"),
    }
)


def layer_of(module: str) -> str:
    """The layer (subpackage) name of a ``repro.*`` dotted module, or ``""``.

    ``repro`` itself and single-file top modules (``repro.cli``) map to
    ``""`` meaning "top level".
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return ""
    candidate = parts[1]
    return candidate if candidate in LAYER_DEPENDENCIES else ""


def is_allowed_import(importer_module: str, imported_module: str) -> bool:
    """May ``importer_module`` import ``imported_module`` (both dotted)?"""
    if importer_module in TOP_LEVEL_MODULES or layer_of(importer_module) == "":
        return True
    if not imported_module.startswith("repro"):
        return True
    importer_layer = layer_of(importer_module)
    imported_layer = layer_of(imported_module)
    if imported_layer == importer_layer:
        return True
    if imported_layer == "":
        # Bare ``import repro`` or a top-level module (``repro.cli``) from
        # inside a layer would invert the DAG (the aggregator imports every
        # layer at init time).
        return False
    if imported_layer in LAYER_DEPENDENCIES[importer_layer]:
        return True
    target = imported_module.split(".", 1)[1] if "." in imported_module else ""
    return (importer_layer, target) in LAYER_EXCEPTIONS
