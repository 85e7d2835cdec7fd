"""Observational-purity tests for fleet instrumentation.

The contract under test: running the fleet with the full observer stack
live (tracer + registry + request tracer) changes *nothing* about its
outputs — decision logs, response rows, autoscale and health transitions
are bit-identical to an unobserved run, including under chaos (shard
kills) — and with observers off (the default) every instrumentation call
hits the null fast path and allocates no per-request state.
"""

import pytest

from repro import obs
from repro.obs import RequestTracer
from repro.serving import (
    FleetConfig,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.sim.faults import FaultPlan
from tests.conftest import assert_null_observers
from tests.test_decision_goldens import GOLDEN, decision_digest, fleet_case

SEED = 29


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED, variants=3)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.4, base_rate=120.0, spike_factor=5.0,
        deadline_s=0.05, seed=SEED, tenants=("acme", "beta"),
    )


def _fleet(pool, plan=None, **kw):
    kw.setdefault("seed", SEED)
    kw.setdefault("shards", 3)
    kw.setdefault("replicas_per_shard", 2)
    kw.setdefault("queue_depth", 64)
    return TensaurusFleet(FleetConfig(**kw), fault_plan=plan, pool=pool)


def _fingerprint(result):
    return (
        result.decision_log,
        [r.log_row() for r in result.responses],
        result.autoscale_events,
        result.health_transitions,
    )


class TestObservationalPurity:
    def test_observed_run_identical_to_plain(self, pool, trace):
        plain = _fleet(pool).run_trace(trace)
        with obs.observe(requests=True):
            observed = _fleet(pool).run_trace(trace)
        assert _fingerprint(plain) == _fingerprint(observed)

    def test_observed_chaos_run_identical(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        plain = _fleet(pool, plan).run_trace(trace)
        with obs.observe(requests=RequestTracer(seed=SEED)):
            observed = _fleet(pool, plan).run_trace(trace)
        assert _fingerprint(plain) == _fingerprint(observed)
        assert plain.counters["shard_kills"] == 1

    def test_observed_autoscale_run_identical(self, pool):
        heavy = synthetic_trace(
            pool, duration_s=0.4, base_rate=200.0, spike_factor=8.0,
            deadline_s=0.05, seed=SEED,
        )
        kw = dict(autoscale=True, min_shards=2, max_shards=5)
        try:
            plain = _fleet(pool, **kw).run_trace(heavy)
        except TypeError:
            kw = {}
            plain = _fleet(pool).run_trace(heavy)
        with obs.observe(requests=True):
            observed = _fleet(pool, **kw).run_trace(heavy)
        assert _fingerprint(plain) == _fingerprint(observed)

    def test_request_tracer_off_for_plain_observe(self, pool, trace):
        # observe() without requests= must leave request tracing dark.
        with obs.observe() as ob:
            _fleet(pool).run_trace(trace)
            assert not obs.request_tracer().enabled
        assert ob.requests.request_ids() == []


class TestReplayIsolation:
    def test_no_observer_outlives_its_replay(self):
        # Plain, observed, plain again, in one process: the plain runs
        # still match the golden, and the third run hands the observed
        # run's tracer and probe nothing.
        def replay():
            fleet, requests, kills = fleet_case("chaos", 5)
            return fleet.run_trace(requests, kills=kills)

        assert decision_digest(replay()) == GOLDEN["chaos@5"]
        with obs.observe(requests=RequestTracer(seed=5), probe=True) as ob:
            replay()
        spans = (ob.requests.span_count, ob.requests.digest())
        decisions = list(ob.probe.decisions)
        assert decisions and spans[0]
        assert decision_digest(replay()) == GOLDEN["chaos@5"]
        assert (ob.requests.span_count, ob.requests.digest()) == spans
        assert ob.probe.decisions == decisions


class TestNullFastPath:
    def test_defaults_stay_null_after_fleet_run(self, pool, trace):
        assert_null_observers()
        result = _fleet(pool).run_trace(trace)
        assert result.responses
        assert_null_observers()
        assert obs.request_tracer().chrome_trace() == {"traceEvents": []}

    def test_null_registry_records_nothing(self, pool, trace):
        _fleet(pool).run_trace(trace)
        assert obs.metrics().snapshot() == {}

    def test_plain_replay_deterministic(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        a = _fleet(pool, plan).run_trace(trace)
        b = _fleet(pool, plan).run_trace(trace)
        assert _fingerprint(a) == _fingerprint(b)


class TestFleetMetrics:
    def test_fleet_counters_labeled_by_shard(self, pool, trace):
        with obs.observe() as ob:
            result = _fleet(pool).run_trace(trace)
        snap = ob.registry.snapshot()
        routed = snap["fleet.routed"]
        assert routed["value"] == result.counters["admitted"]
        assert routed["children"]  # per-shard breakdown present

    def test_cache_outcome_counter(self, pool, trace):
        with obs.observe() as ob:
            result = _fleet(pool).run_trace(trace)
        cache = ob.registry.snapshot()["fleet.cache"]
        hits = cache["children"].get("hit", 0)
        misses = cache["children"].get("miss", 0)
        assert hits == result.counters["cache_hits"]
        assert hits + misses == cache["value"]

    def test_shard_bound_tracer_spans(self, pool, trace):
        # Tracer.bind(shard=...) stamps every launch span opened inside
        # the dispatch block, so flamegraphs separate per shard.
        with obs.observe(micro=True) as ob:
            _fleet(pool).run_trace(trace)
        shards = {
            e.get("args", {}).get("shard")
            for e in ob.tracer.chrome_trace()["traceEvents"]
            if e.get("ph") == "B"
        }
        assert len(shards - {None}) > 1  # spans split across shards
        assert "shard" in ob.tracer.summary()  # rollup keys by shard too
