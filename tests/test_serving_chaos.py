"""Seeded chaos test: a FaultPlan layered under an overload trace.

The single-node server (a one-shard fleet) must absorb launch aborts
arriving *during* a 10x overload spike without ever surfacing an
exception: circuit breakers open and recover, faulted requests degrade
to the host-side analytic tier, and every non-shed response is either
bit-identical to a direct fault-free run (full tier — launch aborts
never corrupt a successful launch's arithmetic) or explicitly flagged
``degraded``.
"""

import numpy as np
import pytest

from repro.serving import (
    BREAKER_OPEN,
    FleetConfig,
    TensaurusFleet,
    TIER_FULL,
    WorkloadPool,
    synthetic_trace,
)
from repro.sim import Tensaurus
from repro.sim.faults import FaultPlan

SEED = 23


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.4, base_rate=120.0, spike_factor=10.0,
        deadline_s=0.05, seed=SEED,
    )


@pytest.fixture(scope="module")
def chaos_result(pool, trace):
    plan = FaultPlan(seed=SEED, launch_abort_rate=0.5, hbm_stall_rate=0.02)
    fleet = TensaurusFleet(
        FleetConfig.single_node(seed=SEED), fault_plan=plan, pool=pool
    )
    # The whole point: this must not raise.
    return fleet.run_trace(trace)


class TestChaosUnderOverload:
    def test_no_unhandled_failures(self, chaos_result, trace):
        assert len(chaos_result.responses) == len(trace)
        assert chaos_result.counters["failed"] == 0
        assert chaos_result.counters["faults"] > 0

    def test_breakers_open_and_recover(self, chaos_result):
        states = [(old, new) for _, _, old, new
                  in chaos_result.breaker_transitions]
        assert any(new == BREAKER_OPEN for _, new in states)
        assert any(new == "closed" for _, new in states)

    def test_faults_degrade_to_analytic(self, chaos_result):
        # Every faulted dispatch must have fallen back, not failed.
        assert (
            chaos_result.counters["analytic_fallbacks"]
            >= chaos_result.counters["faults"]
        )
        fallbacks = [r for r in chaos_result.responses
                     if r.detail.get("reason") == "fault"]
        assert fallbacks
        assert all(r.degraded and r.tier == "analytic" for r in fallbacks)

    def test_non_shed_responses_identical_or_degraded(
        self, chaos_result, trace, pool
    ):
        """Launch aborts and HBM stalls never corrupt a successful
        launch's numeric output: served full-tier responses match a
        fault-free direct run exactly; everything else is flagged."""
        direct = Tensaurus()  # no fault plan
        checked_full = 0
        for resp in chaos_result.responses:
            if resp.status != "ok":
                continue
            if resp.tier == TIER_FULL:
                req = next(r for r in trace
                           if r.request_id == resp.request_id)
                ref = pool[req.workload].run(
                    req.kernel, direct, compute_output=True
                )
                assert np.array_equal(ref.output, resp.report.output), (
                    f"request {resp.request_id} output diverged under chaos"
                )
                checked_full += 1
                if checked_full >= 6:
                    continue
            else:
                assert resp.degraded
        assert checked_full > 0

    def test_chaos_replay_is_deterministic(self, chaos_result, pool, trace):
        plan = FaultPlan(seed=SEED, launch_abort_rate=0.5, hbm_stall_rate=0.02)
        replay = TensaurusFleet(
            FleetConfig.single_node(seed=SEED),
            fault_plan=plan, pool=WorkloadPool(seed=SEED),
        ).run_trace(trace)
        assert replay.decision_log == chaos_result.decision_log
        assert [r.log_row() for r in replay.responses] == \
               [r.log_row() for r in chaos_result.responses]
        assert replay.breaker_transitions == chaos_result.breaker_transitions

    def test_deadline_discipline_survives_chaos(self, chaos_result):
        # Shedding + degradation keep served responses on budget even
        # while half the launches abort.
        assert chaos_result.deadline_hit_rate >= 0.9


class TestTotalBackendLoss:
    def test_all_faults_still_all_served(self, pool, trace):
        """Abort rate 1.0: every launch faults, both breakers latch open,
        yet every admitted request is served from the analytic tier."""
        plan = FaultPlan(seed=SEED, launch_abort_rate=1.0)
        fleet = TensaurusFleet(
            FleetConfig.single_node(seed=SEED), fault_plan=plan, pool=pool
        )
        result = fleet.run_trace(trace)
        assert result.counters["failed"] == 0
        served = [r for r in result.responses if r.status == "ok"]
        assert served
        assert all(r.degraded and r.tier == "analytic" for r in served)
        # Fleet breaker transitions name the shard; each replica's own
        # breaker names the replica.
        opened = {
            replica
            for replica, brk in enumerate(fleet.shards[0].server.breakers)
            if any(new == BREAKER_OPEN for _, _, new in brk.transitions)
        }
        assert opened == {0, 1}
