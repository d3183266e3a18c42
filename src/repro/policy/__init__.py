"""repro.policy — one seedable protocol for the FTL decisions a run can vary.

Specs (:class:`PolicySpec` / :class:`PolicyConfig`) are frozen value
objects living in :class:`~repro.exp.config.SimConfig`; the registry maps
spec names to :class:`Policy` classes; :func:`resolve_policies` builds the
live instances each FTL consults.  Importing this package registers the
built-in static and learned policies.
"""

from repro.policy.base import (
    AllocationContext,
    AllocationPolicy,
    AssemblyContext,
    AssemblyPolicy,
)
from repro.policy.registry import (
    get_policy,
    make_policy,
    policy_names,
    register_policy,
)
from repro.policy.resolve import resolve_policies
from repro.policy.spec import (
    DEFAULT_SPECS,
    POLICY_POINTS,
    PolicyConfig,
    PolicySpec,
)

# importing these modules populates the registry with the built-ins
from repro.policy.learned import BanditAllocationPolicy, LatencyPredictorPolicy
from repro.policy import static  # noqa: F401

__all__ = [
    "POLICY_POINTS",
    "DEFAULT_SPECS",
    "PolicySpec",
    "PolicyConfig",
    "AssemblyPolicy",
    "AllocationPolicy",
    "AssemblyContext",
    "AllocationContext",
    "register_policy",
    "get_policy",
    "policy_names",
    "make_policy",
    "resolve_policies",
    "LatencyPredictorPolicy",
    "BanditAllocationPolicy",
]
