"""Invariant checkers judged against hand-built observations."""

from repro.chaos.invariants import (
    DEFAULT_INVARIANTS,
    ChaosObservation,
    check_all,
    check_breaker_safety,
    check_determinism,
    check_error_bound,
    check_exactly_once,
    check_no_lost_admitted_work,
    check_trace_reconciliation,
)
from repro.obs.probe import ChaosProbe
from repro.serving.fleet import FleetResult
from repro.serving.request import ServingResponse


def launch(probe, kind, replica, breaker, t=0.1):
    """Hand ``probe`` one launch decision of request 1 on shard 0."""
    resp = ServingResponse(request_id=1, status="ok", shard=0,
                           replica=replica)
    probe.record(t, 1, kind, "", (resp, breaker))


def make_obs(**overrides) -> ChaosObservation:
    result = overrides.pop("result", None)
    if result is None:
        result = FleetResult()
        result.counters = {
            "admitted": 3, "served": 3, "evicted": 0,
            "failover_overflow": 0, "duplicate_completions": 0,
        }
    defaults = dict(
        schedule=None,
        result=result,
        digest="d0",
        replay_digest="d0",
        probe=ChaosProbe(),
        reconcile_error=None,
        checkpoint_equal=True,
        error_bound=0.1,
        analytic_errors=[],
    )
    defaults.update(overrides)
    return ChaosObservation(**defaults)


class TestExactlyOnce:
    def test_clean_passes(self):
        assert check_exactly_once(make_obs()) == []

    def test_duplicate_counter_fires(self):
        obs = make_obs()
        obs.result.counters["duplicate_completions"] = 2
        v = check_exactly_once(obs)
        assert v and v[0].invariant == "exactly_once"

    def test_probe_double_commit_fires_even_when_counter_lies(self):
        obs = make_obs()
        obs.probe.record(0.1, 7, "complete", "", ())
        obs.probe.record(0.2, 7, "complete", "", ())
        v = check_exactly_once(obs)
        assert len(v) == 1
        assert v[0].detail["request_ids"] == [7]


class TestNoLostAdmittedWork:
    def test_lost_ids_fire(self):
        obs = make_obs()
        obs.result.lost_request_ids.append(9)
        v = check_no_lost_admitted_work(obs)
        assert v and "lost" in v[0].summary

    def test_counter_identity_fires(self):
        obs = make_obs()
        obs.result.counters["served"] = 2  # one short of admitted=3
        v = check_no_lost_admitted_work(obs)
        assert v and v[0].invariant == "no_lost_admitted_work"

    def test_eviction_and_overflow_balance(self):
        obs = make_obs()
        obs.result.counters.update(
            {"admitted": 5, "served": 3, "evicted": 1,
             "failover_overflow": 1}
        )
        assert check_no_lost_admitted_work(obs) == []


class TestBreakerSafety:
    def test_half_open_probe_launch_is_legal(self):
        obs = make_obs()
        launch(obs.probe, "dispatch", 0, "half_open")
        assert check_breaker_safety(obs) == []

    def test_open_breaker_launch_fires(self):
        obs = make_obs()
        launch(obs.probe, "dispatch", 0, "open")
        v = check_breaker_safety(obs)
        assert v and v[0].invariant == "breaker_safety"

    def test_analytic_launch_without_replica_is_exempt(self):
        obs = make_obs()
        launch(obs.probe, "dispatch", None, None)
        assert check_breaker_safety(obs) == []

    def test_hedge_launch_on_open_breaker_fires(self):
        obs = make_obs()
        launch(obs.probe, "hedge", 1, "open")
        assert check_breaker_safety(obs)


class TestRemainingCheckers:
    def test_determinism(self):
        assert check_determinism(make_obs()) == []
        assert check_determinism(make_obs(replay_digest="d1"))

    def test_reconciliation(self):
        assert check_trace_reconciliation(make_obs()) == []
        assert check_trace_reconciliation(
            make_obs(reconcile_error="span mismatch")
        )

    def test_checkpoint_skip_is_not_a_violation(self):
        assert check_all(make_obs(checkpoint_equal=None)) == []

    def test_checkpoint_divergence_fires(self):
        v = check_all(make_obs(checkpoint_equal=False))
        assert [x.invariant for x in v] == ["checkpoint_resume"]

    def test_error_bound(self):
        assert check_error_bound(
            make_obs(analytic_errors=[(1, 0.05)])
        ) == []
        v = check_error_bound(make_obs(analytic_errors=[(1, 0.2)]))
        assert v and v[0].invariant == "error_bound"

    def test_check_all_runs_every_checker(self):
        obs = make_obs(replay_digest="x", checkpoint_equal=False,
                       reconcile_error="bad",
                       analytic_errors=[(1, 0.9)])
        obs.result.lost_request_ids.append(1)
        obs.result.counters["duplicate_completions"] = 1
        launch(obs.probe, "dispatch", 0, "open", t=0.0)
        names = {v.invariant for v in check_all(obs)}
        assert names == set(DEFAULT_INVARIANTS)

    def test_violation_json(self):
        v = check_determinism(make_obs(replay_digest="zz"))[0]
        data = v.to_json()
        assert data["invariant"] == "determinism"
        assert "digest" in data["detail"]
