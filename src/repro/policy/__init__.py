"""repro.policy — one seedable protocol for the FTL decisions a run can vary.

Specs (:class:`PolicySpec` / :class:`PolicyConfig`) are frozen value
objects living in :class:`~repro.exp.config.SimConfig`; the registry maps
spec names to :class:`Policy` classes; :func:`resolve_policies` builds the
live instances each FTL consults.  Importing this package registers the
built-in static and learned policies.
"""

from repro.policy.base import (
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    AssemblyContext,
    AssemblyPolicy,
    Policy,
    RepairContext,
    RepairPolicy,
)
from repro.policy.registry import (
    POLICIES,
    get_policy,
    make_policy,
    policy_names,
    register_policy,
)
from repro.policy.resolve import ResolvedPolicies, resolve_policies
from repro.policy.spec import (
    DEFAULT_SPECS,
    POLICY_POINTS,
    PolicyConfig,
    PolicySpec,
)

# importing these modules populates the registry with the built-ins
from repro.policy.learned import BanditAllocationPolicy, LatencyPredictorPolicy
from repro.policy.static import (
    QstrAssemblyPolicy,
    QstrRepairPolicy,
    RandomRepairPolicy,
    StaticAllocationPolicy,
    choose_similar,
    speed_candidates,
)

__all__ = [
    "POLICY_POINTS",
    "DEFAULT_SPECS",
    "PolicySpec",
    "PolicyConfig",
    "Policy",
    "AssemblyPolicy",
    "AllocationPolicy",
    "RepairPolicy",
    "AssemblyContext",
    "AllocationContext",
    "AllocationDecision",
    "RepairContext",
    "POLICIES",
    "register_policy",
    "get_policy",
    "policy_names",
    "make_policy",
    "ResolvedPolicies",
    "resolve_policies",
    "QstrAssemblyPolicy",
    "StaticAllocationPolicy",
    "QstrRepairPolicy",
    "RandomRepairPolicy",
    "LatencyPredictorPolicy",
    "BanditAllocationPolicy",
    "choose_similar",
    "speed_candidates",
]
