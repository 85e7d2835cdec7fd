"""Frozen digests of what a fleet replay reports beyond its decisions.

Each of the 17 cases of :mod:`tests.test_decision_goldens` replays
unobserved. Its decision digest must still equal that case's
``GOLDEN``, and one digest freezes the rest of the
:class:`~repro.serving.FleetResult`: ``summary()``, ``shard_stats``,
``tenant_stats``, ``autoscale_events``, ``health_transitions``,
``breaker_transitions``, every field of each fault event,
``lost_request_ids`` and ``hedge_wasted_s``.

The decision digest hashes the log and response rows only, so a change
to what the fleet derives alongside them (the shard health bands, the
per-shard and per-tenant tallies, the autoscaler's event list) passes
it. These digests were computed before the health monitor's score
bands became module constants, and never change afterwards.
"""

from __future__ import annotations

import hashlib

import pytest

from tests.test_decision_goldens import (
    BUILDERS,
    CASES,
    GOLDEN,
    SINGLE_NODE,
    decision_digest,
    fleet_case,
)

RESULT_GOLDEN = {
    "steady@5": "bd90b97c3b648448f1859e2cf4301e5ff306f48d19b9b3f677c7c00eea5a9a68",
    "steady@17": "3a28cdce427127033f9da593e3ab3eacffa77e429e152321a10634dfb2f179af",
    "overload@5": "d788c33278a3cf850c65625686c5d2311aaae8317bc7bbab4e1bf100bbff438f",
    "overload@17": "0a396b55501f4d4f68bff0ae58a3ad5069b994a2ab58b10bd00e1ab9bee14ea9",
    "chaos@5": "bbec7c251ebaa5a6b9736da789cf481f62e6733e5d995942e45658afdaca22f2",
    "chaos@17": "c70a10d108fb8d2f5b43b2c1cb3cad0fd5cf75b2faaa5811f78afe34b48063a9",
    "lane-dropout@5": "7e5928a8d845f048a32bed8e4fb8a2dff65f4d3e2364c39be0fda9b350c67f9c",
    "lane-dropout@17": "522b62c509c2f2c6b7cf8f8aa1442e3e8930d2bc3347d851a7dfb987c246ef78",
    "random@5": "c2ff96b18496b83456a91890a91de73e031256e10a5065283f82886d5352d07a",
    "random@17": "8d9de875d65f12de1e97b2b256d43e1945e9faebd5249f4ed780e31acb0e5deb",
    "weighted@5": "8240740c013d71cf9f0a9fbbd999d037986b867182bc6190091094f9090f0055",
    "weighted@17": "fa1805e4b6f9767c6ef76d804d6306ccfe23a37506ba4f249a4e6cce9f6e43cd",
    "hedged-3x@5": "a1fe504e66332a5790f2502044f6cbd10dfb52bd0b7ab2ebc91220b3cf3a52ec",
    "hedged-3x@17": "8ee73ac8ca4568bad14f98c18bd6fc357d72acbc0bdd98fd6e914a4b19a8cda0",
    "single@11": "5997f896d1524ddb2faee255008543983a8ff4924664cfc3fa3345e9d9a36465",
    "single-chaos@23": "c00d0095428c3b75488e03cb71611be69bced44f70bd296e013ff62dd50b976d",
    "naive@11": "178234ae204d07da79236dcc695c527f273d97a84ad131a2aba0fcafdc5f3af7",
}


def replay(case: str):
    name, seed = case.rsplit("@", 1)
    build = BUILDERS.get(name) or SINGLE_NODE.get(name)
    if build is not None:
        fleet, requests, kills = build(int(seed))
    else:
        fleet, requests, kills = fleet_case(name, int(seed))
    return fleet.run_trace(requests, kills=kills)


def result_digest(result) -> str:
    row = (
        sorted(result.summary().items()),
        sorted(result.shard_stats.items()),
        sorted(result.tenant_stats.items()),
        result.autoscale_events,
        result.health_transitions,
        result.breaker_transitions,
        [(e.kind, e.location, e.detected, e.info)
         for e in result.fault_events],
        result.lost_request_ids,
        result.hedge_wasted_s,
    )
    return hashlib.sha256(repr(row).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_result_digest_is_frozen(case):
    result = replay(case)
    assert decision_digest(result) == GOLDEN[case], f"{case}: log moved"
    assert result_digest(result) == RESULT_GOLDEN[case], (
        f"{case}: digest moved"
    )
