"""The unified simulation configuration tree.

One frozen :class:`SimConfig` names everything a simulation run depends on —
geometry, variation model, FTL sizing, bus timing, workload shape and scale
knobs — so a run is a pure function of its config.  Configs are picklable
(they cross :class:`~concurrent.futures.ProcessPoolExecutor` boundaries),
JSON-round-trippable (``to_dict``/``from_dict``) and content-addressable
(:meth:`SimConfig.content_hash`), which is what the sweep result cache keys
on.

Two presets mirror the repo's historical construction paths:

* :meth:`SimConfig.testbed` — the assembly-study testbed (paper geometry,
  default variation) behind Tables I/II/V and Figures 6/12–15;
* :meth:`SimConfig.device` — the small-device FTL+SSD stack behind
  ``repro replay`` / ``repro run`` (single-plane slice, no factory-bad
  blocks, derived overprovisioning).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Type, TypeVar, Union

from repro.faults.plan import FaultPlan
from repro.fleet.config import FleetConfig
from repro.ftl.config import FtlConfig
from repro.nand.geometry import PAPER_GEOMETRY, NandGeometry
from repro.nand.variation import VariationParams
from repro.policy.spec import PolicyConfig
from repro.ssd.timing import TimingConfig

T = TypeVar("T")

ALLOCATOR_KINDS: Tuple[str, ...] = ("qstr", "random", "sequential", "pgm_sorted")

WORKLOAD_KINDS: Tuple[str, ...] = ("fill_zipf", "trace")

BACKENDS: Tuple[str, ...] = ("scalar", "vector")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the host workload a device run replays.

    ``fill_zipf`` is the CLI's historical synthetic workload: one sequential
    fill of the logical space followed by zipf-skewed overwrites of
    ``overwrite_fraction`` of it.  ``trace`` replays a CSV trace file
    (``trace_path``); note the cache key covers the *path*, not the file
    contents.
    """

    kind: str = "fill_zipf"
    interarrival_us: float = 8000.0
    overwrite_fraction: float = 0.7
    fill_seed: int = 1
    overwrite_seed: int = 2
    requests: Optional[int] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"workload kind must be one of {WORKLOAD_KINDS}")
        if self.interarrival_us <= 0:
            raise ValueError("interarrival_us must be positive")
        if not 0.0 <= self.overwrite_fraction <= 10.0:
            raise ValueError("overwrite_fraction out of range")
        if self.kind == "trace" and not self.trace_path:
            raise ValueError("trace workload requires trace_path")
        if self.requests is not None and self.requests < 0:
            raise ValueError("requests cap must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation cell depends on.

    ``pool_blocks`` scopes the probed block range of the assembly-study
    pools; ``pe_cycles`` (when set) wears every pooled block to that epoch
    before measuring, as in Figure 15.  ``ftl=None`` means "derive the FTL
    sizing from the geometry" exactly as the CLI always has (see
    :func:`repro.exp.build.derived_ftl_config`).
    """

    seed: int = 2024
    chips: int = 4
    pool_blocks: int = 400
    pe_cycles: Optional[int] = None
    allocator: str = "qstr"
    geometry: NandGeometry = PAPER_GEOMETRY
    variation: VariationParams = field(default_factory=VariationParams)
    ftl: Optional[FtlConfig] = None
    timing: TimingConfig = field(default_factory=TimingConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: fault-injection schedule; ``None`` (and the null plan, which is
    #: normalized to ``None``) means the fault-free fast path.
    faults: Optional[FaultPlan] = None
    #: pluggable decision policies; the all-unset default replicates the
    #: historical hard-coded behavior (see :mod:`repro.policy`).
    policies: PolicyConfig = field(default_factory=PolicyConfig)
    #: fleet serving layer on top of N devices built from this config;
    #: ``None`` (the default) means a plain single-device run.
    fleet: Optional[FleetConfig] = None
    #: execution backend: ``"scalar"`` (the reference) or ``"vector"``
    #: (numpy-batched hot paths, byte-identical results — DESIGN.md §13).
    #: Excluded from equality, serialization and content hashes: the backend
    #: changes how a result is computed, never what it is.
    backend: str = field(default="scalar", compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.chips < 2:
            raise ValueError("need at least two chips (lanes)")
        if self.pool_blocks < 1:
            raise ValueError("pool_blocks must be >= 1")
        if self.pe_cycles is not None and self.pe_cycles < 0:
            raise ValueError("pe_cycles must be >= 0")
        if self.allocator not in ALLOCATOR_KINDS:
            raise ValueError(f"allocator must be one of {ALLOCATOR_KINDS}")
        if self.faults is not None and self.faults.is_null:
            # Normalize so config equality, serialization and content
            # hashes cannot distinguish "no plan" from "an empty plan".
            object.__setattr__(self, "faults", None)
        if not isinstance(self.policies, PolicyConfig):
            # accept plain mappings (e.g. from with_(policies={...}))
            object.__setattr__(
                self, "policies", PolicyConfig.from_dict(self.policies)
            )
        if self.allocator != "qstr" and self.policies.assembly is not None:
            # the baseline allocators do no similarity assembly, so the
            # policy would change the config hash and nothing else
            raise ValueError(
                f"policies.assembly={self.policies.assembly.name!r} needs "
                f"allocator 'qstr'; allocator {self.allocator!r} ignores it"
            )

    # -- presets -----------------------------------------------------------

    @classmethod
    def testbed(
        cls,
        seed: int = 2024,
        chips: int = 4,
        pool_blocks: int = 400,
        **overrides: Any,
    ) -> "SimConfig":
        """The assembly-study testbed (paper geometry, default variation)."""
        return cls(seed=seed, chips=chips, pool_blocks=pool_blocks, **overrides)

    @classmethod
    def device(
        cls,
        seed: int = 2024,
        chips: int = 4,
        blocks: int = 48,
        allocator: str = "qstr",
        interarrival_us: float = 8000.0,
        requests: Optional[int] = None,
        trace_path: Optional[str] = None,
        **overrides: Any,
    ) -> "SimConfig":
        """The ``repro replay``/``repro run`` device stack configuration.

        Mirrors the historical CLI construction bit for bit: a single-plane
        slice of ``blocks`` blocks, 24 layers x 4 strings, TLC, no
        factory-bad blocks, FTL sizing derived from ``blocks``.
        """
        geometry = NandGeometry(
            planes_per_chip=1,
            blocks_per_plane=blocks,
            layers_per_block=24,
            strings_per_layer=4,
            bits_per_cell=3,
        )
        workload = WorkloadConfig(
            kind="trace" if trace_path else "fill_zipf",
            interarrival_us=interarrival_us,
            requests=requests,
            trace_path=trace_path,
        )
        return cls(
            seed=seed,
            chips=chips,
            pool_blocks=blocks,
            allocator=allocator,
            geometry=geometry,
            variation=VariationParams(factory_bad_ratio=0.0),
            workload=workload,
            **overrides,
        )

    # -- functional updates ------------------------------------------------

    def with_(self, **overrides: Any) -> "SimConfig":
        """A copy with top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

    def with_path(self, path: str, value: Any) -> "SimConfig":
        """A copy with one (possibly dotted) field path replaced.

        ``with_path("variation.sigma_wl_noise_us", 3.0)`` rebuilds the
        nested frozen dataclasses along the way.
        """
        return _replace_path(self, path.split("."), value)

    def has_path(self, path: str) -> bool:
        """Whether ``path`` names a (possibly nested) config field."""
        obj: Any = type(self)
        for part in path.split("."):
            if not dataclasses.is_dataclass(obj):
                return False
            hints = _field_types(obj if isinstance(obj, type) else type(obj))
            if part not in hints:
                return False
            obj = _strip_optional(hints[part])
        return True

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-serializable dict (nested dataclasses become dicts).

        The ``faults`` key is omitted entirely when no plan is set, the
        ``policies`` key when every policy slot is unset, and the ``fleet``
        key when no fleet layer is configured, so pre-existing configs
        serialize — and content-hash — exactly as they did before fault
        injection / the policy layer / the fleet existed.
        """
        data = dataclasses.asdict(self)
        # the backend is an execution detail: two configs differing only in
        # backend are the same experiment and must hash identically
        data.pop("backend", None)
        if data.get("faults") is None:
            data.pop("faults", None)
        if data.get("fleet") is None:
            data.pop("fleet", None)
        if self.policies.is_default:
            data.pop("policies", None)
        else:
            data["policies"] = self.policies.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        """Inverse of :meth:`to_dict`: ``from_dict(to_dict(c)) == c``."""
        return _from_dict(cls, data)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable content address of this config (hex SHA-256 prefix).

        Identical across processes, platforms and Python versions for equal
        configs — the cache key and the manifest both build on it.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# generic frozen-dataclass (de)serialization helpers
# ---------------------------------------------------------------------------


def _field_types(cls: type) -> Dict[str, Any]:
    """Resolved annotation types of a dataclass (handles PEP 563 strings)."""
    return typing.get_type_hints(cls)


def _strip_optional(tp: Any) -> Any:
    """``Optional[X] -> X``; anything else unchanged."""
    if typing.get_origin(tp) is Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return tp


def _coerce(tp: Any, value: Any) -> Any:
    """Rebuild ``value`` as type ``tp`` (recursing into dataclasses)."""
    if value is None:
        return None
    tp = _strip_optional(tp)
    if dataclasses.is_dataclass(tp) and isinstance(value, Mapping):
        return _from_dict(tp, value)
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
    hints = _field_types(cls)
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):  # type: ignore[arg-type]
        if not f.init or f.name not in data:
            continue
        kwargs[f.name] = _coerce(hints[f.name], data[f.name])
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**kwargs)


def _replace_path(obj: T, parts: Sequence[str], value: Any) -> T:
    name = parts[0]
    hints = _field_types(type(obj))
    if name not in hints:
        raise ValueError(f"{type(obj).__name__} has no field {name!r}")
    if len(parts) == 1:
        return dataclasses.replace(obj, **{name: _coerce(hints[name], value)})  # type: ignore[type-var]
    sub = getattr(obj, name)
    if sub is None:
        raise ValueError(f"cannot descend into unset field {name!r}")
    return dataclasses.replace(obj, **{name: _replace_path(sub, parts[1:], value)})  # type: ignore[type-var]
