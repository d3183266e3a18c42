"""repro.fleet: a deterministic sharded multi-SSD serving layer.

Tenant streams (``repro.workloads`` generators, seed-split per tenant) are
sharded across N simulated SSDs with the full robustness toolkit — bounded
queues, deadlines with seeded retry/backoff, hedged reads, per-device
circuit breakers, and graceful degradation under injected device faults —
all in simulated time, so a fleet run is byte-identical given its config
and seed.
"""

from repro.fleet.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.fleet.config import TENANT_PROFILES, FleetConfig
from repro.fleet.engine import FleetSim
from repro.fleet.tenants import fleet_workload, tenant_stream

__all__ = [
    "CircuitBreaker",
    "FleetConfig",
    "FleetSim",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "TENANT_PROFILES",
    "fleet_workload",
    "tenant_stream",
]
