"""Tests for the sharded serving fleet (:mod:`repro.serving.fleet`):
consistent-hash ring, tenant governor, health monitor, server drain
hooks, and the fleet event loop's routing/fairness/determinism."""

import subprocess
import sys

import numpy as np
import pytest

from repro.serving import (
    FleetConfig,
    HashRing,
    HealthMonitor,
    HEALTH_CRITICAL,
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    CircuitBreaker,
    ServingConfig,
    ServingRequest,
    TenantGovernor,
    TenantQuota,
    TensaurusFleet,
    TensaurusServer,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.request import STATUS_OK, STATUS_REJECTED, STATUS_SHED
from repro.sim.faults import FaultPlan
from repro.util.errors import ConfigError

SEED = 23


@pytest.fixture(scope="module")
def pool():
    # variants=3 gives the ring 15 distinct keys — enough to balance
    # load across a handful of shards.
    return WorkloadPool(seed=SEED, variants=3)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.5, base_rate=120.0, spike_factor=5.0,
        deadline_s=0.05, seed=SEED, tenants=("acme", "beta", "core"),
    )


class TestHashRing:
    def test_balance_within_20_percent(self):
        ring = HashRing(shards=range(4), vnodes=256, seed=3)
        keys = [f"key-{i}" for i in range(4000)]
        counts = {s: 0 for s in ring.shards}
        for key in keys:
            counts[ring.route(key)] += 1
        expect = len(keys) / len(counts)
        for shard, n in counts.items():
            assert abs(n - expect) / expect < 0.20, (shard, n)

    def test_minimal_movement_on_leave(self):
        ring = HashRing(shards=range(4), vnodes=64, seed=3)
        keys = [f"key-{i}" for i in range(2000)]
        before = ring.ownership(keys)
        ring.remove(2)
        after = ring.ownership(keys)
        moved = [k for k in keys if before[k] != after[k]]
        # Only keys owned by the departed shard move.
        assert all(before[k] == 2 for k in moved)
        assert all(after[k] != 2 for k in keys)

    def test_minimal_movement_on_join(self):
        ring = HashRing(shards=range(3), vnodes=64, seed=9)
        keys = [f"key-{i}" for i in range(2000)]
        before = ring.ownership(keys)
        ring.add(3)
        after = ring.ownership(keys)
        # Keys either stay put or move onto the new shard, never
        # between incumbents.
        for k in keys:
            assert after[k] == before[k] or after[k] == 3

    def test_deterministic_across_processes(self):
        """Routing must not lean on Python's randomized ``hash()``."""
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.serving import HashRing;"
            "r = HashRing(shards=range(4), vnodes=32, seed=5);"
            "print([r.route(f'key-{i}') for i in range(64)])"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
                env={"PYTHONHASHSEED": str(h)},
            ).stdout
            for h in (0, 1, 42)
        }
        assert len(outs) == 1

    def test_memoized_route_follows_membership(self):
        """``route`` memoizes each key's ring point, never its owner:
        after every join and leave it agrees with a freshly built ring."""
        keys = [f"key-{i}" for i in range(500)]
        ring = HashRing(shards=range(4), vnodes=32, seed=5)
        members = set(range(4))
        for op, shard in (
            ("remove", 1), ("add", 7), ("remove", 3), ("add", 1),
            ("remove", 0),
        ):
            ring.ownership(keys)  # fills the memo under the old owners
            getattr(ring, op)(shard)
            members = (
                members | {shard} if op == "add" else members - {shard}
            )
            fresh = HashRing(shards=sorted(members), vnodes=32, seed=5)
            assert ring.ownership(keys) == fresh.ownership(keys)

    def test_seed_changes_layout(self):
        keys = [f"key-{i}" for i in range(200)]
        a = HashRing(shards=range(4), vnodes=32, seed=1).ownership(keys)
        b = HashRing(shards=range(4), vnodes=32, seed=2).ownership(keys)
        assert a != b

    def test_validation(self):
        with pytest.raises(ConfigError):
            HashRing(vnodes=0)
        ring = HashRing(shards=[0], vnodes=8)
        with pytest.raises(ConfigError):
            ring.add(0)
        with pytest.raises(ConfigError):
            ring.remove(7)
        ring.remove(0)
        with pytest.raises(ConfigError):
            ring.route("anything")
        assert len(ring) == 0 and 0 not in ring


class TestTenantGovernor:
    def test_quota_isolation(self):
        gov = TenantGovernor(
            TenantQuota(rate=100.0, burst=2),
            {"vip": TenantQuota(rate=100.0, burst=10)},
        )
        # Default tenant exhausts its burst; vip is untouched.
        assert gov.admit("noisy", 0.0)[0]
        assert gov.admit("noisy", 0.0)[0]
        ok, retry_after = gov.admit("noisy", 0.0)
        assert not ok and retry_after > 0
        assert all(gov.admit("vip", 0.0)[0] for _ in range(10))

    def test_weighted_fairness_key(self):
        gov = TenantGovernor(
            TenantQuota(weight=1.0),
            {"heavy": TenantQuota(weight=2.0)},
        )
        gov.charge("light", 1.0)
        gov.charge("heavy", 1.0)
        assert gov.fairness_key("heavy") == pytest.approx(0.5)
        assert gov.fairness_key("light") == pytest.approx(1.0)
        # New tenants start at zero usage — they are served first.
        assert gov.fairness_key("fresh") == 0.0

    def test_snapshot_and_validation(self):
        gov = TenantGovernor()
        gov.admit("a", 0.0)
        gov.charge("a", 0.01)
        snap = gov.snapshot()
        assert snap["a"]["admitted"] == 1 and snap["a"]["served"] == 1
        with pytest.raises(ConfigError):
            gov.charge("a", -1.0)
        with pytest.raises(ConfigError):
            TenantQuota(rate=0)
        with pytest.raises(ConfigError):
            TenantQuota(burst=0)
        with pytest.raises(ConfigError):
            TenantQuota(weight=-1)


class TestHealthMonitor:
    def _breakers(self, n, open_n=0, half_n=0):
        out = []
        for i in range(n):
            b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
            if i < open_n:
                b.record_failure(0.0)
            elif i < open_n + half_n:
                b.record_failure(0.0)
                b.allow(2.0)  # cooldown elapsed -> half-open
            out.append(b)
        return out

    def test_states_track_score(self):
        mon = HealthMonitor(queue_capacity=10)
        h = mon.assess(0, self._breakers(4), 0, 0, 0.0)
        assert h.state == HEALTH_HEALTHY and h.routable
        h = mon.assess(0, self._breakers(4, open_n=2), 2, 1, 1.0)
        assert h.state == HEALTH_DEGRADED
        h = mon.assess(0, self._breakers(4, open_n=4), 10, 4, 2.0)
        assert h.state == HEALTH_CRITICAL
        h = mon.assess(0, self._breakers(4), 0, 0, 3.0, alive=False)
        assert h.state == HEALTH_DEAD and not h.routable

    def test_transitions_logged_once(self):
        mon = HealthMonitor(queue_capacity=10)
        mon.assess(1, self._breakers(2), 0, 0, 0.0)
        mon.assess(1, self._breakers(2), 0, 0, 1.0)  # no change
        mon.assess(1, self._breakers(2, open_n=2), 9, 2, 2.0)
        assert [t[1:] for t in mon.transitions] == [
            (1, None, HEALTH_HEALTHY),
            (1, HEALTH_HEALTHY, HEALTH_CRITICAL),
        ]

    def test_half_open_counts_less_than_open(self):
        mon = HealthMonitor(queue_capacity=10)
        h_half = mon.assess(0, self._breakers(2, half_n=2), 0, 0, 0.0)
        h_open = mon.assess(1, self._breakers(2, open_n=2), 0, 0, 0.0)
        assert h_half.score < h_open.score

    def test_validation(self):
        with pytest.raises(ConfigError):
            HealthMonitor(queue_capacity=0)
        with pytest.raises(ConfigError):
            HealthMonitor(queue_capacity=5, degraded_score=0.9,
                          critical_score=0.2)


class TestServerDrainHooks:
    def test_draining_server_rejects_arrivals(self, pool):
        server = TensaurusServer(
            ServingConfig(seed=SEED, replicas=1), calibrate=False, pool=pool
        )
        server.begin_drain()
        req = ServingRequest(
            request_id=0, arrival_s=0.0, kernel="spmv",
            workload="matrix-s", deadline_s=0.05,
        )
        result = server.run_trace([req])
        resp = result.responses[0]
        assert resp.status == STATUS_REJECTED
        assert resp.detail["reason"] == "draining"

    def test_handoff_state_shape(self, pool):
        server = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), calibrate=False, pool=pool
        )
        state = server.handoff_state()
        assert state["draining"] is False
        assert len(state["breakers"]) == 2
        assert len(state["cache_info"]) == 2
        assert state["bucket_tokens"] > 0


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(shards=0)
        with pytest.raises(ConfigError):
            FleetConfig(routing="round-robin")
        with pytest.raises(ConfigError):
            FleetConfig(min_shards=5, max_shards=3)
        with pytest.raises(ConfigError):
            FleetConfig(shards=9, max_shards=6)
        with pytest.raises(ConfigError):
            FleetConfig(cold_encode_s=-1.0)


class TestFleet:
    def _fleet(self, pool, **kw):
        kw.setdefault("seed", SEED)
        kw.setdefault("shards", 3)
        kw.setdefault("replicas_per_shard", 2)
        return TensaurusFleet(FleetConfig(**kw), pool=pool)

    def test_every_request_gets_exactly_one_response(self, pool, trace):
        result = self._fleet(pool).run_trace(trace)
        assert len(result.responses) == len(trace)
        assert sorted(r.request_id for r in result.responses) == [
            r.request_id for r in sorted(trace, key=lambda r: r.request_id)
        ]
        assert result.exactly_once
        assert not result.lost_request_ids

    def test_same_seed_same_decisions(self, pool, trace):
        a = self._fleet(pool).run_trace(trace)
        b = self._fleet(WorkloadPool(seed=SEED, variants=3)).run_trace(trace)
        assert a.decision_log == b.decision_log
        assert [r.log_row() for r in a.responses] == [
            r.log_row() for r in b.responses
        ]

    def test_affinity_beats_random_on_cache_hits(self, pool, trace):
        aff = self._fleet(pool, routing="affinity").run_trace(trace)
        rnd = self._fleet(pool, routing="random").run_trace(trace)
        assert aff.cache_hit_rate > rnd.cache_hit_rate
        assert aff.latency_percentile(99) < rnd.latency_percentile(99)

    def test_affinity_routes_workload_to_one_shard(self, pool, trace):
        # Autoscale off: a mid-trace ring join would legitimately move
        # some keys onto the new shard.
        result = self._fleet(pool, autoscale=False).run_trace(trace)
        # Under affinity routing with no kills, each workload's full-tier
        # requests all land on a single shard.
        by_workload = {}
        workload_of = {r.request_id: r.workload for r in trace}
        for resp in result.responses:
            if resp.status == STATUS_OK and resp.shard is not None:
                by_workload.setdefault(
                    workload_of[resp.request_id], set()
                ).add(resp.shard)
        assert by_workload and all(
            len(shards) == 1 for shards in by_workload.values()
        )

    def test_noisy_neighbor_is_clipped_not_starving_others(self, pool):
        # "noisy" floods at 10x the rate of "quiet"; per-tenant buckets
        # must reject the flood while quiet traffic is still served.
        requests = []
        rid = 0
        for i in range(300):
            requests.append(ServingRequest(
                request_id=rid, arrival_s=i * 0.001, kernel="spmv",
                workload="matrix-s", deadline_s=0.05, tenant="noisy",
            ))
            rid += 1
        for i in range(30):
            requests.append(ServingRequest(
                request_id=rid, arrival_s=i * 0.01, kernel="spmv",
                workload="matrix-s", deadline_s=0.05, tenant="quiet",
            ))
            rid += 1
        fleet = TensaurusFleet(
            FleetConfig(
                seed=SEED, shards=2, replicas_per_shard=2,
                tenant_default=TenantQuota(rate=120.0, burst=8),
            ),
            pool=pool,
        )
        result = fleet.run_trace(requests)
        stats = result.tenant_stats
        assert stats["noisy"]["rejected"] > 0
        assert stats["quiet"]["rejected"] == 0
        assert stats["quiet"]["served"] == 30

    def test_tenant_rejection_carries_retry_after(self, pool):
        requests = [
            ServingRequest(
                request_id=i, arrival_s=0.0, kernel="spmv",
                workload="matrix-s", deadline_s=0.05, tenant="t",
            )
            for i in range(20)
        ]
        fleet = TensaurusFleet(
            FleetConfig(
                seed=SEED, shards=2,
                tenant_default=TenantQuota(rate=50.0, burst=4),
            ),
            pool=pool,
        )
        result = fleet.run_trace(requests)
        rejected = [
            r for r in result.responses if r.status == STATUS_REJECTED
        ]
        assert rejected
        assert all(r.retry_after_s > 0 for r in rejected)
        assert all(r.detail["reason"] == "tenant_quota" for r in rejected)

    def test_priority_eviction_surfaced_not_silently_lost(self, pool):
        # Overload a small-queue fleet so higher-priority arrivals evict
        # admitted work: each victim must get an explicit SHED response
        # and be counted in admitted_evictions — not in lost_request_ids
        # (exactly_once covers silent loss/duplication only).
        heavy = synthetic_trace(
            pool, duration_s=0.5, base_rate=400.0, spike_factor=8.0,
            deadline_s=0.08, seed=SEED,
        )
        fleet = self._fleet(
            pool, shards=2, max_shards=2, queue_depth=16,
            tenant_default=TenantQuota(rate=5000.0, burst=64),
        )
        result = fleet.run_trace(heavy)
        assert result.admitted_evictions > 0
        assert result.admitted_evictions == result.counters["evicted"]
        shed = [
            r for r in result.responses
            if r.status == STATUS_SHED and r.detail["reason"] == "evicted"
        ]
        assert len(shed) == result.admitted_evictions
        assert result.exactly_once
        assert result.lost_request_ids == []
        assert result.summary()["admitted_evictions"] > 0

    def test_full_tier_responses_carry_reports(self, pool, trace):
        result = self._fleet(pool).run_trace(trace)
        full = [r for r in result.responses
                if r.status == STATUS_OK and not r.degraded]
        assert full
        assert all(r.report is not None for r in full)
        assert all(r.shard is not None for r in full)

    def test_run_trace_builds_no_generator(self, pool, trace, monkeypatch):
        # Speed factors, random routes, launch aborts and lane dropouts
        # are keyed uniform draws: none builds a numpy Generator per
        # launch or request.
        fleet = TensaurusFleet(
            FleetConfig(
                seed=SEED, shards=3, routing="random", hedging=True,
                serving=ServingConfig(hedge_trigger=1.2),
            ),
            fault_plan=FaultPlan(
                seed=SEED, launch_abort_rate=0.1, pe_lane_dropout_rate=0.05
            ),
            pool=pool,
        )
        built = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        result = fleet.run_trace(trace)
        monkeypatch.undo()
        assert result.counters["hedged"] > 0
        assert result.counters["faults"] > 0
        assert any(
            r.report is not None and r.report.faults.get("lanes_dropped")
            for r in result.responses
        )
        assert built == []

    def test_summary_shape(self, pool, trace):
        summary = self._fleet(pool).run_trace(trace).summary()
        for key in (
            "cache_hit_rate", "exactly_once", "lost_requests",
            "shards_final", "count_admitted", "count_redeals",
            "latency_p99_s", "tenants",
        ):
            assert key in summary
