"""Chaos tests for the serving fleet: shard kills mid-trace, at-most-once
execution through failover, autoscaling, and replay determinism under
faults."""

import pytest

from repro.serving import (
    FleetConfig,
    TensaurusFleet,
    TenantQuota,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.request import STATUS_FAILED, STATUS_OK
from repro.sim.faults import SHARD_KILL, FaultPlan
from repro.util.errors import FaultError

SEED = 29


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED, variants=3)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.5, base_rate=120.0, spike_factor=5.0,
        deadline_s=0.05, seed=SEED, tenants=("acme", "beta"),
    )


def _fleet(pool, plan=None, **kw):
    kw.setdefault("seed", SEED)
    kw.setdefault("shards", 3)
    kw.setdefault("replicas_per_shard", 2)
    kw.setdefault("queue_depth", 64)
    return TensaurusFleet(FleetConfig(**kw), fault_plan=plan, pool=pool)


class TestFaultPlanShardKills:
    def test_forced_kills_are_scheduled(self):
        plan = FaultPlan(seed=1, forced_shard_kills=((1, 0.5), (0, 0.2)))
        assert plan.shard_kills_armed
        kills = plan.shard_kills(num_shards=3, horizon_s=1.0)
        assert kills == [(0, 0.2), (1, 0.5)]
        # Kills beyond the shard count are dropped.
        plan2 = FaultPlan(seed=1, forced_shard_kills=((9, 0.5),))
        assert plan2.shard_kills(num_shards=3, horizon_s=1.0) == []

    def test_random_kills_deterministic(self):
        plan = FaultPlan(seed=7, shard_kill_rate=0.5)
        a = plan.shard_kills(num_shards=8, horizon_s=2.0)
        b = plan.shard_kills(num_shards=8, horizon_s=2.0)
        assert a == b and a
        assert plan.shard_kills(num_shards=8, horizon_s=2.0, run_index=1) != a

    def test_shard_kills_do_not_arm_accelerator_faults(self):
        plan = FaultPlan(seed=3, forced_shard_kills=((0, 0.5),))
        assert not plan.enabled
        assert plan.shard_kills_armed

    def test_validation(self):
        with pytest.raises(Exception):
            FaultPlan(shard_kill_rate=1.5)
        with pytest.raises(Exception):
            FaultPlan(forced_shard_kills=((-1, 0.5),))
        with pytest.raises(Exception):
            FaultPlan(forced_shard_kills=((0, 2.0),))


class TestShardKillFailover:
    def test_zero_lost_admitted_requests(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result = _fleet(pool, plan).run_trace(trace)
        assert result.counters["shard_kills"] == 1
        assert result.counters["evicted"] == 0
        assert result.lost_request_ids == []
        assert result.exactly_once
        # Every admitted request was served exactly once.
        admitted = result.counters["admitted"]
        served = result.counters["served"]
        assert served == admitted
        assert result.counters["duplicate_completions"] == 0

    def test_at_most_once_via_epochs(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result = _fleet(pool, plan).run_trace(trace)
        # Work in flight on the dead shard was voided; its completions
        # surfaced as stale events, not duplicate responses.
        assert result.counters["voided_inflight"] > 0
        assert (
            result.counters["stale_completions"]
            == result.counters["voided_inflight"]
        )
        voided = [
            rid for (_, rid, event, _) in result.decision_log
            if event == "void"
        ]
        for rid in voided:
            resp = next(
                r for r in result.responses if r.request_id == rid
            )
            assert resp.status == STATUS_OK and resp.epoch > 0

    def test_killed_shard_receives_nothing_after_kill(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result = _fleet(pool, plan).run_trace(trace)
        kill_time = next(
            t for (t, _, event, info) in result.decision_log
            if event == "shard_kill" and info == "shard=1"
        )
        late_on_dead = [
            (t, rid) for (t, rid, event, info) in result.decision_log
            if event == "admit" and "shard=1" in info and t > kill_time
        ]
        assert late_on_dead == []

    def test_fault_event_recorded(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((0, 0.3),))
        result = _fleet(pool, plan).run_trace(trace)
        kinds = [e.kind for e in result.fault_events]
        assert SHARD_KILL in kinds
        assert result.shard_stats[0]["alive"] is False
        assert result.shard_stats[0]["killed_at"] is not None

    def test_chaos_replay_bit_identical(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        a = _fleet(pool, plan).run_trace(trace)
        b = _fleet(WorkloadPool(seed=SEED, variants=3), plan).run_trace(trace)
        assert a.decision_log == b.decision_log
        assert [r.log_row() for r in a.responses] == [
            r.log_row() for r in b.responses
        ]

    def test_explicit_kills_parameter(self, pool, trace):
        result = _fleet(pool).run_trace(trace, kills=[(2, 0.1)])
        assert result.counters["shard_kills"] == 1
        assert result.exactly_once

    def test_double_kill_of_same_shard_is_skipped(self, pool, trace):
        result = _fleet(pool).run_trace(
            trace, kills=[(1, 0.1), (1, 0.2)]
        )
        assert result.counters["shard_kills"] == 1
        assert any(
            event == "kill_skipped"
            for (_, _, event, _) in result.decision_log
        )

    def test_all_shards_dead_raises(self, pool, trace):
        fleet = _fleet(pool, shards=2, min_shards=1, autoscale=False)
        with pytest.raises(FaultError):
            fleet.run_trace(trace, kills=[(0, 0.1), (1, 0.15)])

    def test_launch_aborts_trip_fleet_breakers(self, pool, trace):
        # Regression: the fault-path completion used to carry the
        # faulted replica, so the analytic fallback's completion called
        # record_success on the breaker that had just recorded the
        # failure — consecutive_failures reset every time and fleet
        # breakers could never open.
        plan = FaultPlan(seed=SEED, launch_abort_rate=0.9)
        result = _fleet(pool, plan).run_trace(trace)
        assert result.counters["faults"] > 0
        opened = [
            t for t in result.breaker_transitions if t[3] == "open"
        ]
        assert opened
        # Faulted launches fall back to the analytic tier; nothing is
        # lost or double-served.
        assert result.exactly_once
        assert result.lost_request_ids == []

    def test_killed_shard_records_dead_health_transition(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result = _fleet(pool, plan).run_trace(trace)
        dead = [
            (shard, new) for (_, shard, _, new) in result.health_transitions
            if new == "dead"
        ]
        assert (1, "dead") in dead

    def test_survivors_absorb_the_keyspace(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.3),))
        result = _fleet(pool, plan, autoscale=False).run_trace(trace)
        kill_time = next(
            t for (t, _, event, _) in result.decision_log
            if event == "shard_kill"
        )
        shards_after = {
            int(info.split("shard=")[1].split()[0])
            for (t, _, event, info) in result.decision_log
            if event == "admit" and t > kill_time
        }
        assert shards_after and 1 not in shards_after


class TestRedealOverflow:
    def test_cap_fails_the_lowest_ranked_orphans(self, pool):
        """A kill orphans more requests than ``failover_redeal_cap``: the
        lowest-ranked fail fast, the rest are served exactly once."""
        heavy = synthetic_trace(
            pool, duration_s=0.5, base_rate=400.0, spike_factor=8.0,
            deadline_s=0.02, seed=SEED, tenants=("acme", "beta"),
        )
        # A deep queue: no eviction can shed a re-dealt request later.
        fleet = _fleet(
            pool, queue_depth=128, autoscale=False, failover_redeal_cap=3,
            tenant_default=TenantQuota(rate=1.0e5),
        )
        result = fleet.run_trace(heavy, kills=[(0, 0.25)])
        log = result.decision_log
        overflow = [
            rid for (_, rid, event, info) in log
            if event == "failed" and info == "redeal_overflow"
        ]
        redealt = [rid for (_, rid, event, _) in log if event == "redeal"]
        assert len(redealt) == 3 and len(overflow) >= 3
        assert result.counters["evicted"] == 0
        # Overflow is the tail of the (-priority, arrival_s, request_id)
        # ranking of every orphan.
        by_id = {r.request_id: r for r in heavy}
        ranked = sorted(
            redealt + overflow,
            key=lambda rid: (
                -by_id[rid].priority, by_id[rid].arrival_s, rid,
            ),
        )
        assert ranked[3:] == overflow
        assert len({by_id[rid].priority for rid in ranked}) > 1
        responses = {r.request_id: r for r in result.responses}
        for rid in overflow:
            assert responses[rid].status == STATUS_FAILED
            assert responses[rid].detail == {"reason": "redeal_overflow"}
        assert result.counters["failover_overflow"] == len(overflow)
        assert result.counters["failed"] == len(overflow)
        assert result.lost_request_ids == sorted(overflow)
        assert not result.exactly_once
        for rid in redealt:
            commits = [
                row for row in log if row[1] == rid and row[2] == "complete"
            ]
            assert len(commits) == 1
            assert responses[rid].status == STATUS_OK
            assert responses[rid].shard != 0
        assert result.counters["duplicate_completions"] == 0
        assert result.counters["served"] == (
            result.counters["admitted"] - len(overflow)
        )


class TestAutoscaling:
    def test_scale_up_under_pressure(self, pool):
        heavy = synthetic_trace(
            pool, duration_s=0.5, base_rate=400.0, spike_factor=8.0,
            deadline_s=0.08, seed=SEED,
        )
        fleet = _fleet(
            pool, shards=2, max_shards=5, queue_depth=32,
            scale_up_queue_depth=4.0,
            tenant_default=TenantQuota(rate=5000.0, burst=64),
        )
        result = fleet.run_trace(heavy)
        assert result.counters["scale_ups"] > 0
        assert any(kind == "up" for (_, kind, _) in result.autoscale_events)
        assert result.exactly_once

    def test_scale_down_when_idle(self, pool):
        # A short burst then silence: the autoscaler drains back down.
        quiet = synthetic_trace(
            pool, duration_s=0.05, base_rate=100.0, spike_factor=1.0,
            deadline_s=0.05, seed=SEED,
        )
        fleet = _fleet(
            pool, shards=4, min_shards=2, autoscale_interval_s=0.02,
            scale_down_idle_ticks=2, horizon_pad_s=0.5,
        )
        result = fleet.run_trace(quiet)
        assert result.counters["scale_downs"] > 0
        downs = [s for (_, kind, s) in result.autoscale_events
                 if kind == "down"]
        assert downs
        for sid in downs:
            assert result.shard_stats[sid]["draining"] is True
            # The drain records the shard's terminal dead transition.
            assert any(
                shard == sid and new == "dead"
                for (_, shard, _, new) in result.health_transitions
            )
        assert result.exactly_once

    def test_health_transitions_recorded(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result = _fleet(pool, plan).run_trace(trace)
        assert result.health_transitions
        # Every live shard starts by entering the healthy state.
        first_by_shard = {}
        for (_, shard, old, new) in result.health_transitions:
            first_by_shard.setdefault(shard, (old, new))
        assert all(v == (None, "healthy") for v in first_by_shard.values())
