"""Frozen decision digests of small serving traces.

Each case replays a seeded trace through a fleet (or one single-node
server) and hashes ``repr((decision_log, [r.log_row() for r in
responses]))``. The constants were computed before the degradation
ladder learned to memoize launches, so a match proves the memo changes
no admit, route, tier, fault, hedge or finish-time decision: finish
times carry every served report's simulated cycles.
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
    fleet, requests, kills = fleet_case(name, int(seed))
    return decision_digest(fleet.run_trace(requests, kills=kills))


CASES = [f"{name}@{seed}" for name in SHAPES for seed in SEEDS] + ["server"]


@pytest.mark.parametrize("case", CASES)
def test_decision_digest_is_frozen(case):
    assert run_case(case) == GOLDEN[case]
