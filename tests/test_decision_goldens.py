"""Frozen decision digests of small serving traces.

Each case replays a seeded trace through a fleet and hashes ``repr((decision_log, [r.log_row() for r in
responses]))``. A match means no admit, route, tier, fault, hedge or
finish-time decision moved: finish times carry every served report's
simulated cycles. The first nine cases were first computed before the
degradation ladder learned to memoize launches, and the memo passed
them unedited.

The ``random`` and ``weighted`` cases were first computed before the
fleet's shard queues, routable-shard list and dispatch pass became
indexed, and the indexed loop passed them unedited. They reach two
paths the other shapes do not: random routing, which indexes the
routable list by position, and weighted fairness with a failover whose
orphans overflow the re-deal cap. The ``hedged-3x`` cases were computed
the same way, from the list-and-sweep loop: with three replicas per
shard, a settled hedge pair's release of its losing replica can be the
only replica that frees at that instant.

Every digest was then re-computed once, when the per-launch and
per-request draws (speed factors, random routes, launch aborts, lane
dropouts) moved from one seeded numpy ``Generator`` per draw to a keyed
:func:`repro.util.rng.uniform`. The draws keep their distributions, but
each takes a new value, so every decision log moves. That change was
the only one in the commit that re-computed them; every later change
must match them unedited.

The ``single`` cases run the single-node server's settings as a
one-shard fleet: ``single@11`` on the trace the deleted single-node
server loop's ``server`` case ran, ``single-chaos@23`` on
``tests/test_serving_chaos.py``'s trace and fault plan. Both were
computed while the server still had a loop of its own, with the fleet
config spelled out (one shard, two replicas, no autoscaling, hedging
on, an 8-deep queue and a 400 req/s, burst-16 admission bucket); they
now build it with :meth:`FleetConfig.single_node`, so they pin that
constructor's settings too. ``naive@11`` runs ``single@11``'s trace through the
naive baseline (``shedding=False``, no hedging); it has
no parent reference: it was first computed with the naive path in the
fleet loop.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serving import (
    FleetConfig,
    TenantQuota,
    TensaurusFleet,
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
    "steady@5": "d186b608af6a100c65c50ac24d2384425b67d38bc0d39c1c635f3edd2f46fe8f",
    "steady@17": "1905ea3d865ad1bf9245a659cd74ad83162115f68e57d2eb5c21205848ff140c",
    "overload@5": "65dba0e95a2163693e20e3797922f4c590290da7159f9110bc150f379d6acccb",
    "overload@17": "c0bbbe5ed9af36b33f41be170984b4e61ad64f3c2dd964d31600a43ed7e5644f",
    "chaos@5": "faba30258df9f8271831f48b62a2f0d3b4ae3dc48028477dc7e3d917cab8339e",
    "chaos@17": "0449245d30e18d1c51953fca9f7c244f5fa9cf934e0cc66fc8f2d701899f2bc3",
    "lane-dropout@5": "bad3bd47b2218cbfb2bc37897ba5409428d45171dde17f002e7d825e2bd87b3b",
    "lane-dropout@17": "307ca72ccf60b45a83ac45017107ac527052b718e39e810333227a65d77eaea3",
    "random@5": "44b5f6bff806036c0b6025087c73b2f922dc1bbe4287a8a97eabfabcaf68d978",
    "random@17": "2f322d54cd8723927ebb1ddaf6ec609f2db5bdcd5f6aad5b764385c466948286",
    "weighted@5": "26d943cc04bc65dfa58444530799f98e4e255034c7d05c293ae9fff3b27df88e",
    "weighted@17": "e8b2783365a35ee7e9030557e8e40f20675b51bb8013e488befa56b6c39e6865",
    "hedged-3x@5": "028d7d0c1bae79a181f611b3d6d7c6b59493745d7bc9d589fc8ef226481da39b",
    "hedged-3x@17": "52ae3aff1e77e138b69d51bb0e0292ee7849700bcad7beb57a71cb4ce6b90a04",
    "single@11": "6fcf89ecb349e7cd095ee491b1732faa88552af46bb76f809c075a8dc0ec08f9",
    "single-chaos@23": "9527d0448fc445066334cbc4ec85c7104c6ed65db53594ff0fb2128f61e385ed",
    "naive@11": "207f66720bc55f84dc86e1ceb2437a1c1c498538b019476d2762e5624a4328d5",
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


def single_case(seed: int, **overrides):
    """A 4x spike with 30 ms deadlines through a one-shard fleet."""
    pool = WorkloadPool(seed=seed)
    requests = synthetic_trace(
        pool, duration_s=1.0, base_rate=300.0, spike_factor=4.0,
        deadline_s=0.03, seed=seed,
    )
    config = FleetConfig.single_node(seed=seed, **overrides)
    return TensaurusFleet(config, pool=pool), requests, []


def naive_case(seed: int):
    """``single_case``'s trace through the naive baseline."""
    return single_case(seed, hedging=False, shedding=False)


def single_chaos_case(seed: int):
    """Half the launches abort under a 10x spike on a one-shard fleet."""
    pool = WorkloadPool(seed=seed)
    requests = synthetic_trace(
        pool, duration_s=0.4, base_rate=120.0, spike_factor=10.0,
        deadline_s=0.05, seed=seed,
    )
    plan = FaultPlan(seed=seed, launch_abort_rate=0.5, hbm_stall_rate=0.02)
    fleet = TensaurusFleet(
        FleetConfig.single_node(seed=seed), fault_plan=plan, pool=pool
    )
    return fleet, requests, []


#: Cases run at one seed each, named ``<name>@<seed>`` like the rest.
SINGLE_NODE = {
    "single": single_case,
    "single-chaos": single_chaos_case,
    "naive": naive_case,
}


def decision_digest(result) -> str:
    rows = [r.log_row() for r in result.responses]
    return hashlib.sha256(
        repr((result.decision_log, rows)).encode()
    ).hexdigest()


def run_case(case: str) -> str:
    name, seed = case.rsplit("@", 1)
    if name in BUILDERS:
        fleet, requests, kills = BUILDERS[name](int(seed))
    elif name in SINGLE_NODE:
        fleet, requests, kills = SINGLE_NODE[name](int(seed))
    else:
        fleet, requests, kills = fleet_case(name, int(seed))
    return decision_digest(fleet.run_trace(requests, kills=kills))


CASES = [
    f"{name}@{seed}" for name in (*SHAPES, *BUILDERS) for seed in SEEDS
] + ["single@11", "single-chaos@23", "naive@11"]


@pytest.mark.parametrize("case", CASES)
def test_decision_digest_is_frozen(case):
    assert run_case(case) == GOLDEN[case]
