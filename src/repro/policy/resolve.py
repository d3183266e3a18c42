"""Spec -> instance resolution.

Only frozen :class:`~repro.policy.spec.PolicySpec` values cross process
boundaries; each sweep worker calls :func:`resolve_policies` when it builds
its stack, so live policy state (RNGs, online estimates) is always born
inside the process that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.policy.base import (
    AllocationPolicy,
    AssemblyPolicy,
    GcVictimPolicy,
    Policy,
    RepairPolicy,
    WearPolicy,
)
from repro.policy.registry import make_policy
from repro.policy.spec import DEFAULT_SPECS, PolicyConfig, PolicySpec


@dataclass
class ResolvedPolicies:
    """The five live policy instances one FTL consults."""

    assembly: AssemblyPolicy
    allocation: AllocationPolicy
    gc_victim: GcVictimPolicy
    wear: WearPolicy
    repair: RepairPolicy


def _resolve_one(point: str, spec: Optional[PolicySpec], seed: int) -> Policy:
    if spec is None:
        spec = DEFAULT_SPECS[point]
    instance = make_policy(spec, seed)
    if instance.point != point:
        raise ValueError(
            f"policy {spec.name!r} serves point {instance.point!r}, "
            f"not {point!r}"
        )
    return instance


def resolve_policies(
    policies: Optional[PolicyConfig] = None,
    *,
    seed: int = 0,
) -> ResolvedPolicies:
    """Build the live policy set for one FTL; unset slots get the defaults."""
    if policies is None:
        policies = PolicyConfig()
    resolved = ResolvedPolicies(
        assembly=_resolve_one("assembly", policies.assembly, seed),  # type: ignore[arg-type]
        allocation=_resolve_one("allocation", policies.allocation, seed),  # type: ignore[arg-type]
        gc_victim=_resolve_one("gc_victim", policies.gc_victim, seed),  # type: ignore[arg-type]
        wear=_resolve_one("wear", policies.wear, seed),  # type: ignore[arg-type]
        repair=_resolve_one("repair", policies.repair, seed),  # type: ignore[arg-type]
    )
    return resolved
