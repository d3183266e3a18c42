"""Per-tenant request streams, multiplexed into one fleet arrival sequence.

Each tenant owns a disjoint logical-page slice (``pages_per_tenant`` pages,
identically placed on every device so re-sharding never renumbers) and an
independent synthetic workload stream seeded via
``derive_seed(seed, "fleet", tenant)`` — adding a tenant, or reordering the
merge, never perturbs another tenant's draws.  The merged sequence is
sorted by ``(arrival time, tenant, per-tenant index)``, a total order two
runs of the same config always agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.fleet.config import FleetConfig
from repro.utils.rng import derive_seed
from repro.workloads.model import OpKind, Request, clamp_requests
from repro.workloads.synthetic import (
    ArrivalProcess,
    hot_cold_writes,
    mixed_read_write,
    small_large_mix,
    zipf_writes,
)


@dataclass(frozen=True)
class TenantRequest:
    """One fleet-level request: a tenant id plus its tenant-local request.

    ``request.lpn`` is *tenant-local* (``[0, pages_per_tenant)``); the
    engine adds the tenant's slice base when talking to a device.
    """

    tenant: int
    index: int
    request: Request

    @property
    def time_us(self) -> float:
        return self.request.time_us

    @property
    def op(self) -> OpKind:
        return self.request.op


def tenant_profile(fleet: FleetConfig, tenant: int) -> str:
    """The workload profile tenant ``tenant`` runs (cycled from the config)."""
    return fleet.profiles[tenant % len(fleet.profiles)]


def tenant_stream(
    fleet: FleetConfig, seed: int, tenant: int, pages_per_tenant: int
) -> List[Request]:
    """Tenant ``tenant``'s request list in tenant-local LPN space."""
    if pages_per_tenant < 1:
        raise ValueError("pages_per_tenant must be >= 1")
    tseed = derive_seed(seed, "fleet", tenant)
    arrivals = ArrivalProcess(mean_interarrival_us=fleet.interarrival_us)
    profile = tenant_profile(fleet, tenant)
    count = fleet.requests_per_tenant
    if profile == "zipf":
        requests = zipf_writes(
            pages_per_tenant, count, arrivals=arrivals, seed=tseed
        )
    elif profile == "mixed":
        requests = mixed_read_write(
            pages_per_tenant,
            count,
            read_fraction=fleet.read_fraction,
            arrivals=arrivals,
            seed=tseed,
        )
    elif profile == "hotcold":
        requests = hot_cold_writes(
            pages_per_tenant, count, arrivals=arrivals, seed=tseed
        )
    elif profile == "smalllarge":
        requests = small_large_mix(
            pages_per_tenant,
            count,
            large_pages=min(8, pages_per_tenant),
            arrivals=arrivals,
            seed=tseed,
        )
    else:  # pragma: no cover — FleetConfig validates the profile set
        raise ValueError(f"unknown tenant profile {profile!r}")
    kept, _, _ = clamp_requests(requests, pages_per_tenant)
    return kept


def fleet_workload(
    fleet: FleetConfig, seed: int, pages_per_tenant: int
) -> List[TenantRequest]:
    """All tenant streams merged into one deterministic arrival order."""
    merged: List[TenantRequest] = []
    for tenant in range(fleet.tenants):
        stream = tenant_stream(fleet, seed, tenant, pages_per_tenant)
        merged.extend(
            TenantRequest(tenant=tenant, index=index, request=request)
            for index, request in enumerate(stream)
        )
    merged.sort(key=lambda tr: (tr.request.time_us, tr.tenant, tr.index))
    return merged
