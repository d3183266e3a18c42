"""Spec -> instance resolution.

Only frozen :class:`~repro.policy.spec.PolicySpec` values cross process
boundaries; each sweep worker calls :func:`resolve_policies` when it builds
its stack, so live policy state (RNGs, online estimates) is always born
inside the process that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.policy.base import AllocationPolicy, AssemblyPolicy, Policy, RepairPolicy
from repro.policy.registry import make_policy
from repro.policy.spec import DEFAULT_SPECS, PolicyConfig, PolicySpec


@dataclass
class ResolvedPolicies:
    """The three live policy instances one FTL consults."""

    assembly: AssemblyPolicy
    allocation: AllocationPolicy
    repair: RepairPolicy


def _resolve_one(point: str, spec: Optional[PolicySpec], seed: int) -> Policy:
    # a slot only holds specs prefixed by its point, and a registered class
    # serves its name's prefix, so the instance serves ``point``
    return make_policy(spec if spec is not None else DEFAULT_SPECS[point], seed)


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
        repair=_resolve_one("repair", policies.repair, seed),  # type: ignore[arg-type]
    )
    return resolved
