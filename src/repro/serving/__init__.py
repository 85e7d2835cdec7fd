"""Overload-safe serving layer in front of the simulator stack.

The serving subsystem answers one question the rest of the repository
does not: what happens when more work arrives than the simulated
accelerator fleet can finish on time? It implements the classic
overload-control toolbox — bounded admission queues with priorities,
per-tenant token-bucket rate limiting, per-request deadlines,
per-backend circuit breakers, hedged launches across replicas — plus a
three-tier graceful degradation ladder that trades fidelity for latency:

1. **full** — the cycle simulator with numeric output
   (:meth:`repro.sim.Tensaurus.run_mttkrp` and friends, bit-identical
   to a direct call);
2. **batched** — the same simulation with ``compute_output=False``
   (timing-exact, no numeric output);
3. **analytic** — the closed-form :class:`repro.sim.perfmodel.FastModel`
   estimate, flagged ``degraded`` with a calibrated error bound.

Everything is deterministic: requests carry virtual arrival times,
service durations come from a seeded cost model (not the host clock),
and every admit / shed / hedge / degrade decision replays bit-for-bit
for a given seed. See ``ARCHITECTURE.md`` ("Serving & overload").

One event loop serves every configuration:
:class:`repro.serving.fleet.TensaurusFleet` shards traffic across N
replica bundles (:class:`repro.serving.server.TensaurusServer`) behind a
seeded consistent-hash ring (cache-affinity routing on workload
fingerprints), with per-tenant quotas and weighted-fair dispatch, shard
health monitoring with seeded autoscaling, and cross-shard failover
that re-deals a dead shard's work to survivors exactly once. A
single-node server is a one-shard fleet without autoscaling.
:class:`repro.serving.fleet.FleetConfig` is the only serving config;
the service-time model, breaker, tier, hedge and cache settings are
module constants of :mod:`repro.serving.server` and
:mod:`repro.serving.fleet`. See ``ARCHITECTURE.md`` ("Serving fleet").
"""

from repro.serving.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    TokenBucket,
)
from repro.serving.fleet import (
    ROUTING_AFFINITY,
    ROUTING_RANDOM,
    FleetConfig,
    FleetResult,
    FleetShard,
    TensaurusFleet,
)
from repro.serving.health import (
    HEALTH_CRITICAL,
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HealthMonitor,
    ShardHealth,
)
from repro.serving.ladder import (
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
    TIERS,
    DegradationLadder,
    calibrate_analytic_error,
)
from repro.serving.request import ServingRequest, ServingResponse
from repro.serving.ring import HashRing
from repro.serving.server import TensaurusServer
from repro.serving.tenant import TenantGovernor, TenantQuota
from repro.serving.trace import WorkloadItem, WorkloadPool, synthetic_trace

__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetShard",
    "TensaurusFleet",
    "ROUTING_AFFINITY",
    "ROUTING_RANDOM",
    "HashRing",
    "TenantGovernor",
    "TenantQuota",
    "HealthMonitor",
    "ShardHealth",
    "HEALTH_HEALTHY",
    "HEALTH_DEGRADED",
    "HEALTH_CRITICAL",
    "HEALTH_DEAD",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "TokenBucket",
    "TIER_FULL",
    "TIER_BATCHED",
    "TIER_ANALYTIC",
    "TIERS",
    "DegradationLadder",
    "calibrate_analytic_error",
    "ServingRequest",
    "ServingResponse",
    "TensaurusServer",
    "WorkloadItem",
    "WorkloadPool",
    "synthetic_trace",
]
