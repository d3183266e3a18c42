"""Frozen policy specs: the serializable half of the policy protocol.

A :class:`PolicySpec` names a registered policy (``"assembly.qstr"``,
``"allocation.bandit"``, ...) plus its tuning parameters, and lives inside
:class:`~repro.exp.config.SimConfig` as ``config.policies.<point>``.  Like
:class:`~repro.faults.plan.FaultPlan` it is a frozen, picklable, JSON-round-
trippable value object — the *spec* crosses process-pool boundaries and
participates in content hashing, while the live policy instance (which may
hold an RNG and online state) is constructed fresh inside each worker by
:func:`repro.policy.resolve.resolve_policies`.

Hash compatibility: a :class:`PolicyConfig` whose every slot is unset (or
explicitly set to that slot's default spec, which is normalized back to
unset) serializes to nothing at all — pre-existing configs keep their exact
content hashes, so the sweep cache stays warm across this redesign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

#: The five decision points the FTL routes through the policy layer, in the
#: order they appear on ``SimConfig.policies``.
POLICY_POINTS: Tuple[str, ...] = (
    "assembly",
    "allocation",
    "gc_victim",
    "wear",
    "repair",
)

#: Registered-name prefix per decision point (``gc_victim`` policies are
#: named ``gc.<name>`` to keep specs compact on the command line).
POINT_PREFIXES: Dict[str, str] = {
    "assembly": "assembly",
    "allocation": "allocation",
    "gc_victim": "gc",
    "wear": "wear",
    "repair": "repair",
}

_SCALAR_TYPES = (str, int, float, bool)


def _parse_param_value(text: str) -> Union[int, float, str]:
    """CLI-style scalar coercion: int, then float, then string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class PolicySpec:
    """One named policy plus its parameters, as a hashable value object.

    ``params`` is stored as a key-sorted tuple of ``(key, value)`` pairs so
    equal specs compare, pickle and hash identically however they were
    built; any Mapping or iterable of pairs passed in is normalized.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("policy name must be a non-empty string")
        if "." not in self.name:
            raise ValueError(
                f"policy name {self.name!r} must be '<point>.<name>' "
                f"(e.g. 'repair.qstr')"
            )
        params = self.params
        if isinstance(params, Mapping):
            pairs: Iterable[Tuple[str, Any]] = params.items()
        else:
            pairs = tuple(tuple(pair) for pair in params)  # type: ignore[misc]
        normalized = []
        for key, value in pairs:
            if not isinstance(key, str) or not key:
                raise ValueError(f"policy param key {key!r} must be a string")
            if not isinstance(value, _SCALAR_TYPES):
                raise ValueError(
                    f"policy param {key}={value!r} must be a JSON scalar"
                )
            normalized.append((key, value))
        normalized.sort(key=lambda pair: pair[0])
        if len({key for key, _ in normalized}) != len(normalized):
            raise ValueError(f"duplicate policy params in {self.name!r}")
        object.__setattr__(self, "params", tuple(normalized))

    # -- accessors ---------------------------------------------------------

    @property
    def short_name(self) -> str:
        """The name without its point prefix (``"repair.qstr"`` -> ``"qstr"``)."""
        return self.name.split(".", 1)[1]

    @property
    def prefix(self) -> str:
        """The point prefix (``"repair.qstr"`` -> ``"repair"``)."""
        return self.name.split(".", 1)[0]

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": self.param_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(f"unknown PolicySpec fields: {sorted(unknown)}")
        return cls(name=data["name"], params=data.get("params", ()))

    @classmethod
    def from_text(cls, text: str) -> "PolicySpec":
        """Parse ``"name"`` or ``"name:k=v,k=v"`` (the CLI/sweep-axis form).

        Values coerce int -> float -> str, matching ``--over`` axis parsing.
        """
        name, _, param_text = text.partition(":")
        params: Dict[str, Any] = {}
        if param_text:
            for item in param_text.split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key:
                    raise ValueError(
                        f"bad policy param {item!r} in {text!r} (want k=v)"
                    )
                params[key] = _parse_param_value(raw)
        return cls(name=name, params=params)

    def text(self) -> str:
        """Inverse of :meth:`from_text`."""
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{rendered}"


#: What each decision point resolves to when its spec slot is unset.
DEFAULT_SPECS: Dict[str, PolicySpec] = {
    "assembly": PolicySpec("assembly.qstr"),
    "allocation": PolicySpec("allocation.static"),
    "gc_victim": PolicySpec("gc.min_valid"),
    "wear": PolicySpec("wear.coldest"),
    "repair": PolicySpec("repair.qstr"),
}


def _coerce_spec(
    point: str, value: Union[None, str, Mapping[str, Any], PolicySpec]
) -> Optional[PolicySpec]:
    if value is None:
        return None
    if isinstance(value, str):
        value = PolicySpec.from_text(value)
    elif isinstance(value, Mapping):
        value = PolicySpec.from_dict(value)
    if not isinstance(value, PolicySpec):
        raise ValueError(f"policies.{point} must be a PolicySpec, got {value!r}")
    expected = POINT_PREFIXES[point]
    if value.prefix != expected:
        raise ValueError(
            f"policies.{point} must name a {expected!r}-prefixed policy, "
            f"got {value.name!r}"
        )
    return value


@dataclass(frozen=True)
class PolicyConfig:
    """The five policy slots of a :class:`~repro.exp.config.SimConfig`.

    Each slot accepts a :class:`PolicySpec`, a spec dict, or the compact
    ``"name:k=v,..."`` text form (which is what sweep axes and the CLI
    ``--policy`` flag feed through ``with_path``).  A slot explicitly set to
    its default spec is normalized back to ``None`` so config equality,
    serialization and content hashes cannot distinguish the two.
    """

    assembly: Optional[PolicySpec] = None
    allocation: Optional[PolicySpec] = None
    gc_victim: Optional[PolicySpec] = None
    wear: Optional[PolicySpec] = None
    repair: Optional[PolicySpec] = None

    def __post_init__(self) -> None:
        for point in POLICY_POINTS:
            spec = _coerce_spec(point, getattr(self, point))
            if spec == DEFAULT_SPECS[point]:
                spec = None
            object.__setattr__(self, point, spec)

    @property
    def is_default(self) -> bool:
        """True when every slot is unset (pure pre-policy behavior)."""
        return all(getattr(self, point) is None for point in POLICY_POINTS)

    def spec_for(self, point: str) -> Optional[PolicySpec]:
        if point not in POLICY_POINTS:
            raise ValueError(f"unknown policy point {point!r}; pick from {POLICY_POINTS}")
        spec = getattr(self, point)
        return spec  # type: ignore[no-any-return]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Only the set slots, as spec dicts (empty dict when default)."""
        return {
            f.name: spec.to_dict()
            for f in fields(self)
            for spec in [getattr(self, f.name)]
            if spec is not None
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicyConfig":
        unknown = set(data) - set(POLICY_POINTS)
        if unknown:
            raise ValueError(f"unknown PolicyConfig fields: {sorted(unknown)}")
        return cls(**dict(data))
