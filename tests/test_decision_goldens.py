"""Frozen decision digests of small serving traces.

Each case replays a seeded trace through a fleet (or one single-node
server) and hashes ``repr((decision_log, [r.log_row() for r in
responses]))``. The constants were computed before the degradation
ladder learned to memoize launches, so a match proves the memo changes
no admit, route, tier, fault, hedge or finish-time decision: finish
times carry every served report's simulated cycles.

The ``random`` and ``weighted`` cases were computed before the fleet's
shard queues, routable-shard list and dispatch pass became indexed.
They reach two paths the other shapes do not: random routing, which
indexes the routable list by position, and weighted fairness with a
failover whose orphans overflow the re-deal cap. The ``hedged-3x`` cases
were computed the same way, from the list-and-sweep loop: with three
replicas per shard, a settled hedge pair's release of its losing replica
can be the only replica that frees at that instant.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serving import (
    FleetConfig,
    ServingConfig,
    TenantQuota,
    TensaurusFleet,
    TensaurusServer,
    WorkloadPool,
    synthetic_trace,
)
from repro.sim.faults import FaultPlan

TENANTS = ("acme", "beta", "core")
SEEDS = (5, 17)

#: (fleet shards, trace duration s, base rate, spike factor, deadline s)
SHAPES = {
    "steady": (4, 0.8, 500.0, 1.0, 0.05),
    "overload": (3, 0.5, 300.0, 10.0, 0.01),
    "chaos": (4, 0.6, 600.0, 1.0, 0.05),
    "lane-dropout": (4, 0.6, 600.0, 1.0, 0.05),
}

GOLDEN = {
    "steady@5": "a5c41ad935a3ed01f29af6bc85a9760aecb55186b9a4dc6a6798062cfa4c6e3b",
    "steady@17": "87deed75b52621310720fadb2ef238687f6e3a87f573bdd083ca44fad3b3b420",
    "overload@5": "e6b12f614cc333056c703bdc626bbc177d61b8797f6bf7d809395ee9bb7bfdf1",
    "overload@17": "13e8998b3cf18c8ff48a854bf0db7acb85aab2b2457a637be06d5974bf58d2c8",
    "chaos@5": "1879ff4d9fa2357054f84de9ea7afb3df75da0f203a892ecb803e42f524b6756",
    "chaos@17": "15520c09f6695be53b18cc8d705b8b5fd1af8bb0249116f732a1de3b51793e56",
    "lane-dropout@5": "2889001f73b0a6d94e5d5b348ca32da1b4b1c03f2f221576e3eb330f98a7e390",
    "lane-dropout@17": "24d003042cf5143a7e93f33b162b9c985fccdef8c0b79a8514c352f1fa3696fc",
    "server": "035ad8647758f0836c38ff659d50922eb2c2b15ecd2390e4c71669cf4bfa6c2c",
    "random@5": "a8b022be88f722f36cdec26aee045031365f97d1e71754bb97abd15a25d44732",
    "random@17": "4e82dd84c109e0221d8dc58b68ab7656bd4ac9a471314d885f9b4fbfcf68f74e",
    "weighted@5": "0d781bbf5e9485eafbe2b2a4ac268e1ac81be6d17d21f165e33a3357d52f6f25",
    "weighted@17": "927314526f27edf1d2b38f0a0229f40dd7071f637a20f6270d0f4cb76eb19046",
    "hedged-3x@5": "c754e3de9247d1451d85b66de7db3b4c6c666d4b26c748bb556bf89570c2dd2c",
    "hedged-3x@17": "5512f1310f04d7d39b4c5255bcffe53ef6710144c073d74798d9928f5b742b42",
}


def fleet_case(name: str, seed: int):
    """The fleet and trace of one case."""
    shards, duration, rate, spike, deadline = SHAPES[name]
    pool = WorkloadPool(seed=seed, variants=2)
    requests = synthetic_trace(
        pool, duration_s=duration, base_rate=rate, spike_factor=spike,
        deadline_s=deadline, seed=seed, tenants=TENANTS,
    )
    plan = None
    if name == "chaos":
        plan = FaultPlan(seed=seed, launch_abort_rate=0.05)
    elif name == "lane-dropout":
        plan = FaultPlan(seed=seed, pe_lane_dropout_rate=0.05)
    config = FleetConfig(
        seed=seed, shards=shards, max_shards=shards + 2, queue_depth=32,
        hedging=name == "chaos", autoscale=name == "overload",
        tenant_default=TenantQuota(rate=1.0e5),
    )
    fleet = TensaurusFleet(config, fault_plan=plan, pool=pool)
    kills = []
    if name == "chaos":
        # After 30% and 60% of the trace, kill the shard the next arrival
        # routes to, at that arrival, so failover has work to re-deal.
        for fraction in (0.3, 0.6):
            for req in requests:
                shard = fleet.ring.route(pool[req.workload].fingerprint)
                if (req.arrival_s >= fraction * requests[-1].arrival_s
                        and shard not in dict(kills)):
                    kills.append((shard, req.arrival_s))
                    break
    return fleet, requests, kills


def random_case(seed: int):
    """Random routing under autoscaling; shard 1 dies at the middle
    arrival, so the routable list changes length mid-trace."""
    pool = WorkloadPool(seed=seed, variants=2)
    requests = synthetic_trace(
        pool, duration_s=0.6, base_rate=500.0, spike_factor=6.0,
        deadline_s=0.03, seed=seed, tenants=TENANTS,
    )
    config = FleetConfig(
        seed=seed, shards=3, max_shards=5, queue_depth=16,
        routing="random", autoscale=True,
        tenant_default=TenantQuota(rate=1.0e5),
    )
    fleet = TensaurusFleet(config, pool=pool)
    return fleet, requests, [(1, requests[len(requests) // 2].arrival_s)]


def weighted_case(seed: int):
    """Weighted fairness, a rate-limited tenant, and a kill whose orphans
    overflow a re-deal cap of 3."""
    pool = WorkloadPool(seed=seed, variants=2)
    requests = synthetic_trace(
        pool, duration_s=0.5, base_rate=400.0, spike_factor=8.0,
        deadline_s=0.02, seed=seed, tenants=TENANTS,
    )
    config = FleetConfig(
        seed=seed, shards=3, max_shards=3, queue_depth=16,
        autoscale=False, failover_redeal_cap=3,
        tenant_default=TenantQuota(rate=1.0e5),
        tenant_quotas=(
            ("acme", TenantQuota(rate=1.0e5, weight=3.0)),
            ("beta", TenantQuota(rate=150.0, burst=4)),
        ),
    )
    fleet = TensaurusFleet(config, pool=pool)
    # Kill the shard the first arrival past 50% of the trace routes to,
    # at that arrival.
    half = 0.5 * requests[-1].arrival_s
    req = next(r for r in requests if r.arrival_s >= half)
    shard = fleet.ring.route(pool[req.workload].fingerprint)
    return fleet, requests, [(shard, req.arrival_s)]


def hedged_3x_case(seed: int):
    """Hedging and launch aborts with three replicas per shard: a twin
    may be booked on a replica still finishing another launch, so the
    winner's replica is not always the one that frees when a pair
    settles."""
    pool = WorkloadPool(seed=seed, variants=2)
    requests = synthetic_trace(
        pool, duration_s=0.6, base_rate=900.0, spike_factor=3.0,
        deadline_s=0.03, seed=seed, tenants=TENANTS,
    )
    config = FleetConfig(
        seed=seed, shards=3, replicas_per_shard=3, max_shards=5,
        queue_depth=32, hedging=True, autoscale=False,
        tenant_default=TenantQuota(rate=1.0e5),
    )
    plan = FaultPlan(seed=seed, launch_abort_rate=0.05)
    return TensaurusFleet(config, fault_plan=plan, pool=pool), requests, []


BUILDERS = {
    "random": random_case,
    "weighted": weighted_case,
    "hedged-3x": hedged_3x_case,
}


def decision_digest(result) -> str:
    rows = [r.log_row() for r in result.responses]
    return hashlib.sha256(
        repr((result.decision_log, rows)).encode()
    ).hexdigest()


def run_case(case: str) -> str:
    if case == "server":
        pool = WorkloadPool(seed=11)
        requests = synthetic_trace(
            pool, duration_s=1.0, base_rate=300.0, spike_factor=4.0,
            deadline_s=0.03, seed=11,
        )
        server = TensaurusServer(ServingConfig(seed=11), pool=pool)
        return decision_digest(server.run_trace(requests))
    name, seed = case.rsplit("@", 1)
    if name in BUILDERS:
        fleet, requests, kills = BUILDERS[name](int(seed))
    else:
        fleet, requests, kills = fleet_case(name, int(seed))
    return decision_digest(fleet.run_trace(requests, kills=kills))


CASES = [
    f"{name}@{seed}" for name in (*SHAPES, *BUILDERS) for seed in SEEDS
] + ["server"]


@pytest.mark.parametrize("case", CASES)
def test_decision_digest_is_frozen(case):
    assert run_case(case) == GOLDEN[case]
