"""Fleet-level hedged launches, including the scale-down drain race.

The nastiest interleaving: a hedged pair settles (winner commits, loser
still has a completion event queued), the now-idle shard drains on the
next autoscale tick, and THEN the loser's completion pops on the dead
shard. It must resolve as ``hedge_cancelled`` — exactly once, never a
duplicate commit, never lost work. The race seeds below were found by
deterministic sweep and replay bit-identically; the tests assert the
race actually occurs (not just that nothing crashed) so config drift
can't quietly turn them vacuous.
"""

import pytest

from repro import obs
from repro.obs.probe import ChaosProbe
from repro.serving.breaker import BREAKER_HALF_OPEN, CircuitBreaker
from repro.serving.fleet import FleetConfig, TensaurusFleet
from repro.serving.tenant import TenantQuota
from repro.serving.trace import WorkloadPool, synthetic_trace
from repro.sim.faults import FaultPlan


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=3, variants=2)


def drain_race_config(seed: int) -> FleetConfig:
    """Aggressive scale-down: one idle tick on a 1 ms grid drains."""
    return FleetConfig(
        seed=seed, shards=4, replicas_per_shard=2, hedging=True,
        min_shards=1, autoscale_interval_s=0.001, scale_down_idle_ticks=1,
    )


def run_with_probe(pool, seed: int):
    fleet = TensaurusFleet(
        drain_race_config(seed), pool=pool, calibrate=False
    )
    trace = synthetic_trace(
        pool, duration_s=0.12, base_rate=120.0, spike_factor=4.0,
        deadline_s=0.08, seed=seed,
    )
    probe = ChaosProbe()
    prev = obs.set_probe(probe)
    try:
        result = fleet.run_trace(trace)
    finally:
        obs.set_probe(prev)
    return result, probe


def hedged_fleet_result(pool, seed: int = 7):
    cfg = FleetConfig(
        seed=seed, shards=3, replicas_per_shard=2, hedging=True,
    )
    fleet = TensaurusFleet(cfg, pool=pool, calibrate=False)
    trace = synthetic_trace(
        pool, duration_s=0.15, base_rate=110.0, spike_factor=5.0,
        deadline_s=0.05, seed=seed,
    )
    return fleet.run_trace(trace)


class TestHedgedFleet:
    def test_hedging_actually_fires(self, pool):
        result = hedged_fleet_result(pool)
        assert result.counters["hedged"] > 0

    def test_every_pair_settles_exactly_once(self, pool):
        result = hedged_fleet_result(pool)
        c = result.counters
        # Each hedged pair resolves to one commit plus one cancellation
        # (a kill may void both halves instead, but this trace has none).
        assert c["hedged"] == c["hedge_cancelled"]
        assert c["hedge_wins"] <= c["hedged"]
        assert c["duplicate_completions"] == 0
        assert result.exactly_once

    def test_hedged_replay_is_bit_identical(self, pool):
        a = hedged_fleet_result(pool)
        b = hedged_fleet_result(pool)
        assert a.decision_log == b.decision_log
        assert [r.log_row() for r in a.responses] == [
            r.log_row() for r in b.responses
        ]

    def test_hedging_off_by_default_and_log_shape_unchanged(self, pool):
        cfg = FleetConfig(seed=7, shards=3)
        assert cfg.hedging is False
        fleet = TensaurusFleet(cfg, pool=pool, calibrate=False)
        trace = synthetic_trace(
            pool, duration_s=0.1, base_rate=80.0, seed=7
        )
        result = fleet.run_trace(trace)
        assert result.counters["hedged"] == 0
        assert not any(row[2] == "hedge" for row in result.decision_log)


class TestHedgeTwinBreakers:
    def test_no_probe_starts_before_the_cooldown(self, monkeypatch):
        # Choosing a hedge twin looks ahead to the hedge's start time. If
        # that look-ahead moved an open breaker to half-open, an event
        # before the hedge's start could probe the replica early.
        early = []
        start_probe = CircuitBreaker.start_probe

        def checked_start_probe(breaker, now):
            if (breaker.state == BREAKER_HALF_OPEN
                    and now - breaker.opened_at_s < breaker.cooldown_s):
                early.append((now, breaker.opened_at_s))
            return start_probe(breaker, now)

        monkeypatch.setattr(CircuitBreaker, "start_probe",
                            checked_start_probe)
        hedged = 0
        for seed in range(12):
            pool = WorkloadPool(seed, variants=2)
            trace = synthetic_trace(
                pool, duration_s=0.5, base_rate=800.0, spike_factor=1.0,
                deadline_s=0.05, seed=seed,
            )
            cfg = FleetConfig(
                seed=seed, shards=3, replicas_per_shard=3, max_shards=3,
                autoscale=False, hedging=True,
                tenant_default=TenantQuota(rate=1.0e5),
            )
            fleet = TensaurusFleet(
                cfg, fault_plan=FaultPlan(seed=seed, launch_abort_rate=0.4),
                pool=pool,
            )
            hedged += fleet.run_trace(trace).counters["hedged"]
        assert hedged > 0
        assert early == []


class TestDrainRace:
    #: Sweep-discovered seed where a drain lands strictly between a
    #: hedged pair's winning commit and its loser's completion event.
    #: It is the only one among seeds 0-59 that races.
    RACE_SEED = 42

    def find_races(self, result, probe):
        drains = {e["shard"]: e["t"] for e in probe.of("scale_down")}
        commits = {e["rid"]: e for e in probe.of("complete")}
        races = []
        for ev in probe.of("hedge_cancel"):
            commit = commits.get(ev["rid"])
            drained_at = drains.get(ev["response"].shard)
            if (
                commit is not None and drained_at is not None
                and commit["t"] < drained_at <= ev["t"]
            ):
                races.append(ev)
        return races

    def test_drained_shards_loser_cancels_exactly_once(self, pool):
        result, probe = run_with_probe(pool, self.RACE_SEED)
        races = self.find_races(result, probe)
        assert races, (
            "expected the drain to race an in-flight hedged pair; the "
            "seed or fleet timing changed — re-sweep for a new seed"
        )
        commit_counts = {}
        for ev in probe.of("complete"):
            commit_counts[ev["rid"]] = commit_counts.get(ev["rid"], 0) + 1
        cancel_counts = {}
        for ev in probe.of("hedge_cancel"):
            cancel_counts[ev["rid"]] = cancel_counts.get(ev["rid"], 0) + 1
        for ev in races:
            rid = ev["rid"]
            # Committed exactly once, cancelled exactly once: never both
            # halves commit, never both halves cancel.
            assert commit_counts[rid] == 1
            assert cancel_counts[rid] == 1
        assert result.counters["duplicate_completions"] == 0
        assert result.exactly_once

    def test_drain_race_replay_is_bit_identical(self, pool):
        a, _ = run_with_probe(pool, self.RACE_SEED)
        b, _ = run_with_probe(pool, self.RACE_SEED)
        assert a.decision_log == b.decision_log

    def test_no_seed_in_sweep_duplicates_or_loses(self, pool):
        for seed in range(8):
            result, probe = run_with_probe(pool, seed)
            assert result.counters["duplicate_completions"] == 0, seed
            assert result.exactly_once, seed
            served_rids = [
                r.request_id for r in result.responses if r.status == "ok"
            ]
            assert len(served_rids) == len(set(served_rids)), seed


class TestKillMidHedge:
    def test_kill_voids_hedged_pairs_without_duplicates(self, pool):
        voided = 0
        for seed in range(6):
            cfg = FleetConfig(
                seed=seed, shards=3, replicas_per_shard=2, hedging=True,
            )
            fleet = TensaurusFleet(cfg, pool=pool, calibrate=False)
            trace = synthetic_trace(
                pool, duration_s=0.15, base_rate=110.0, spike_factor=5.0,
                deadline_s=0.05, seed=seed,
            )
            with obs.observe(obs.NULL_TRACER, obs.NULL_REGISTRY,
                             probe=True) as ob:
                result = fleet.run_trace(trace, kills=[(1, 0.06)])
            c = result.counters
            assert c["shard_kills"] == 1, seed
            assert c["duplicate_completions"] == 0, seed
            assert result.exactly_once, seed
            # Every half of every pair is accounted for: a settled pair
            # cancels its loser, a voided pair leaves two stale halves
            # (both carry the old epoch).
            stale_halves = sum(
                1 for e in ob.probe.of("stale") if e["response"].hedged
            )
            assert 2 * c["hedged"] == (
                2 * c["hedge_cancelled"] + stale_halves
            ), seed
            assert c["hedge_wins"] <= c["hedged"], seed
            voided += stale_halves
        assert voided > 0
