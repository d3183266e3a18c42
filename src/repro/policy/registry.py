"""Name-based policy registry, mirroring ``repro.exp.tasks``.

Policies register under ``"<point>.<name>"`` (``"assembly.qstr"``,
``"repair.random"``, ...); the prefix binds the policy to its decision
point, and :func:`get_policy` resolves spec names back to classes at stack
construction time — so unknown names fail loudly when a config is *used*,
not when it is built (specs must stay constructible before the policy
modules import).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type, TypeVar

from repro.policy.base import Policy
from repro.policy.spec import POLICY_POINTS, PolicySpec

P = TypeVar("P", bound=Type[Policy])


#: registered name -> class; populated by the :func:`register_policy`
#: decorators in ``repro.policy.static`` / ``repro.policy.learned`` (and by
#: downstream packages registering their own).
POLICIES: Dict[str, Type[Policy]] = {}


def register_policy(name: str) -> Callable[[P], P]:
    """Class decorator: register a :class:`Policy` subclass under ``name``.

    The name's prefix must be a decision point and the class must serve
    that point; duplicate names are rejected so two imports cannot silently
    shadow each other.
    """
    point = name.partition(".")[0]
    if point not in POLICY_POINTS:
        raise ValueError(
            f"policy name {name!r} must start with one of "
            f"{sorted(POLICY_POINTS)} followed by '.'"
        )

    def decorator(cls: P) -> P:
        served = cls.point if isinstance(cls, type) and issubclass(cls, Policy) else None
        if served != point:
            raise TypeError(
                f"{name!r} must be registered on a {point!r} policy class, "
                f"not one serving {served!r}"
            )
        existing = POLICIES.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"policy {name!r} is already registered")
        POLICIES[name] = cls
        return cls

    return decorator


def _ensure_builtins() -> None:
    """Import the built-in policy modules so their decorators have run.

    Lets callers resolve ``"repair.qstr"`` etc. without having imported
    ``repro.policy`` as a package first (e.g. via ``repro.ftl`` alone).
    """
    from repro.policy import learned, static  # noqa: F401


def get_policy(name: str) -> Type[Policy]:
    """The registered class for ``name``; raises on unknown names."""
    cls = POLICIES.get(name)
    if cls is None:
        _ensure_builtins()
        cls = POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown policy {name!r}; registered: {sorted(POLICIES)}"
        )
    return cls


def policy_names(point: Optional[str] = None) -> List[str]:
    """All registered names, optionally restricted to one decision point."""
    if point is not None and point not in POLICY_POINTS:
        raise ValueError(
            f"unknown policy point {point!r}; pick from {sorted(POLICY_POINTS)}"
        )
    _ensure_builtins()
    return sorted(
        name
        for name, cls in POLICIES.items()
        if point is None or cls.point == point
    )


def make_policy(spec: PolicySpec, seed: int = 0) -> Policy:
    """Instantiate the registered policy a spec names.

    Raises ``ValueError`` on an unknown name or on a parameter the policy
    does not read.
    """
    return get_policy(spec.name)(spec, seed)
