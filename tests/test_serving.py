"""Tests for the overload-safe serving layer (:mod:`repro.serving`):
token bucket, circuit breaker, degradation ladder, workload pool,
synthetic traces, and the deterministic virtual-time server."""

import numpy as np
import pytest

from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    DegradationLadder,
    ServingConfig,
    ServingRequest,
    TensaurusServer,
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
    TIERS,
    TokenBucket,
    WorkloadPool,
    calibrate_analytic_error,
    synthetic_trace,
)
from repro.sim import Tensaurus, TensaurusConfig
from repro.util.errors import ConfigError, KernelError

SEED = 17


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.4, base_rate=120.0, spike_factor=10.0,
        deadline_s=0.05, seed=SEED,
    )


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        bucket = TokenBucket(rate=10.0, capacity=3)
        assert all(bucket.try_acquire(0.0)[0] for _ in range(3))
        ok, retry_after = bucket.try_acquire(0.0)
        assert not ok and retry_after == pytest.approx(0.1)
        # One token refills after 1/rate seconds.
        ok, _ = bucket.try_acquire(0.1)
        assert ok
        assert bucket.acquired == 4 and bucket.rejected == 1

    def test_never_exceeds_capacity(self):
        bucket = TokenBucket(rate=100.0, capacity=2)
        bucket.try_acquire(0.0)
        bucket._refill(10.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, capacity=1)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, capacity=0)

    def test_validation_messages_name_the_bad_value(self):
        # ConfigError subclasses ValueError: plain except ValueError works.
        with pytest.raises(ValueError, match=r"rate.*-2\.5"):
            TokenBucket(rate=-2.5, capacity=1)
        with pytest.raises(ValueError, match=r"capacity.*0"):
            TokenBucket(rate=1.0, capacity=0)

    def test_zero_rate_mutation_yields_retry_never(self):
        # A bucket mutated to zero rate after construction must not
        # divide by zero in the retry_after computation.
        bucket = TokenBucket(rate=10.0, capacity=1)
        bucket.try_acquire(0.0)
        bucket.rate = 0.0
        ok, retry_after = bucket.try_acquire(0.0)
        assert not ok
        assert retry_after == float("inf")


class TestCircuitBreaker:
    def test_opens_after_threshold_failures(self):
        brk = CircuitBreaker(failure_threshold=3, cooldown_s=1.0)
        for t in (0.0, 0.1):
            brk.record_failure(t)
            assert brk.state == BREAKER_CLOSED
        brk.record_failure(0.2)
        assert brk.state == BREAKER_OPEN
        assert not brk.allow(0.3)

    def test_halfopen_probe_closes_on_success(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5,
                             halfopen_probes=2)
        brk.record_failure(0.0)
        assert not brk.allow(0.4)
        assert brk.allow(0.6)  # cooldown elapsed -> half-open probe
        assert brk.state == BREAKER_HALF_OPEN
        brk.record_success(0.6)
        assert brk.state == BREAKER_HALF_OPEN  # needs 2 probes
        brk.record_success(0.7)
        assert brk.state == BREAKER_CLOSED

    def test_halfopen_failure_reopens(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
        brk.record_failure(0.0)
        assert brk.allow(0.6)
        brk.record_failure(0.6)
        assert brk.state == BREAKER_OPEN
        # Cooldown restarts from the half-open failure.
        assert not brk.allow(1.0)
        assert brk.allow(1.2)

    def test_success_resets_failure_streak(self):
        brk = CircuitBreaker(failure_threshold=2)
        brk.record_failure(0.0)
        brk.record_success(0.1)
        brk.record_failure(0.2)
        assert brk.state == BREAKER_CLOSED

    def test_transitions_are_logged_with_times(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
        brk.record_failure(0.1)
        brk.allow(0.7)
        brk.record_success(0.7)
        assert brk.transitions == [
            (0.1, BREAKER_CLOSED, BREAKER_OPEN),
            (0.7, BREAKER_OPEN, BREAKER_HALF_OPEN),
            (0.7, BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_state_codes(self):
        brk = CircuitBreaker(failure_threshold=1)
        assert brk.state_code == 0
        brk.record_failure(0.0)
        assert brk.state_code == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=-1.0)
        with pytest.raises(ConfigError):
            CircuitBreaker(halfopen_probes=0)

    def test_halfopen_admits_one_probe_at_a_time(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
        brk.record_failure(0.0)
        assert brk.allow(0.6)  # cooldown elapsed -> half-open
        assert brk.start_probe(0.6)  # first caller takes the slot
        # Second concurrent caller is refused while the probe is out.
        assert not brk.allow(0.6)
        assert not brk.start_probe(0.6)
        # The outcome releases the slot.
        brk.record_success(0.6)
        assert brk.state == BREAKER_CLOSED

    def test_halfopen_probe_slot_frees_on_failure(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
        brk.record_failure(0.0)
        assert brk.allow(0.6) and brk.start_probe(0.6)
        brk.record_failure(0.6)  # probe lost -> reopen, slot reset
        assert brk.state == BREAKER_OPEN
        assert brk.probe_inflight == 0
        assert brk.allow(1.2) and brk.start_probe(1.2)

    def test_start_probe_outside_halfopen(self):
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
        assert brk.start_probe(0.0)  # closed: no reservation needed
        brk.record_failure(0.0)
        assert not brk.start_probe(0.1)  # open: allow() should gate

    def test_flapping_regression_single_probe_per_halfopen_window(self):
        """A flapping backend must see exactly one probe per half-open
        window, not a thundering herd that re-trips it instantly."""
        brk = CircuitBreaker(failure_threshold=1, cooldown_s=0.5,
                             halfopen_probes=2)
        brk.record_failure(0.0)
        for window in range(3):
            t = 0.6 + 0.7 * window
            assert brk.allow(t)
            assert brk.state == BREAKER_HALF_OPEN
            assert brk.start_probe(t)
            # Herd of 5 concurrent dispatchers: all refused.
            assert not any(brk.start_probe(t) for _ in range(5))
            brk.record_failure(t)  # backend still flapping -> reopen
            assert brk.state == BREAKER_OPEN
        # Only one probe was ever in flight per window: transitions
        # alternate open -> half_open -> open cleanly.
        states = [new for (_, _, new) in brk.transitions]
        assert states == [
            BREAKER_OPEN,
            BREAKER_HALF_OPEN, BREAKER_OPEN,
            BREAKER_HALF_OPEN, BREAKER_OPEN,
            BREAKER_HALF_OPEN, BREAKER_OPEN,
        ]


class TestServingConfig:
    def test_defaults_valid(self):
        ServingConfig()

    # The ids keep the numbers the cases had while a fourth case checked
    # the removed ``default_deadline_s`` field.
    @pytest.mark.parametrize("kwargs", [
        {"replicas": 0},
        {"queue_depth": 0},
        {"bucket_rate": 0.0},
        {"full_headroom": 1.5},
        {"hedge_trigger": 0.5},
        {"service_jitter": -0.1},
        {"analytic_base_s": -1.0},
    ], ids=[f"kwargs{i}" for i in (0, 1, 2, 4, 5, 6, 7)])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)


class TestServingRequest:
    def test_absolute_deadline(self):
        req = ServingRequest(1, 0.5, "mttkrp", "tensor-s", 0.05)
        assert req.absolute_deadline_s == pytest.approx(0.55)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServingRequest(1, -0.1, "mttkrp", "tensor-s", 0.05)
        with pytest.raises(ConfigError):
            ServingRequest(1, 0.0, "mttkrp", "tensor-s", 0.0)


class TestWorkloadPool:
    def test_deterministic_contents(self):
        a, b = WorkloadPool(seed=3), WorkloadPool(seed=3)
        for name in a.names():
            assert a[name].nnz == b[name].nnz
        ta = a["tensor-s"].operands["tensor"]
        tb = b["tensor-s"].operands["tensor"]
        assert ta == tb

    def test_choices_cover_all_kernels(self, pool):
        kernels = {k for k, _ in pool.choices()}
        assert kernels == {"mttkrp", "ttmc", "spmm", "spmv"}

    def test_unknown_workload_raises(self, pool):
        with pytest.raises(KernelError):
            pool["no-such-workload"]

    def test_run_and_analytic_dispatch(self, pool):
        acc = Tensaurus()
        item = pool["matrix-s"]
        report = item.run("spmv", acc, compute_output=True)
        assert report.output is not None
        with pytest.raises(KernelError):
            item.run("nope", acc)


class TestDegradationLadder:
    def test_tier_order(self):
        assert TIERS == (TIER_FULL, TIER_BATCHED, TIER_ANALYTIC)
        assert DegradationLadder.next_lower(TIER_FULL) == TIER_BATCHED
        assert DegradationLadder.next_lower(TIER_ANALYTIC) is None

    def test_execute_tiers(self, pool):
        ladder = DegradationLadder(TensaurusConfig(), analytic_error_bound=0.2)
        acc = Tensaurus()
        item = pool["tensor-s"]
        full, degraded, err = ladder.execute(TIER_FULL, item, "mttkrp", acc)
        assert full.output is not None and not degraded and err == 0.0
        batched, degraded, err = ladder.execute(TIER_BATCHED, item, "mttkrp", acc)
        assert batched.output is None and degraded and err == 0.0
        assert batched.cycles == full.cycles  # timing-exact tier
        analytic, degraded, err = ladder.execute(TIER_ANALYTIC, item, "mttkrp")
        assert analytic.detail.get("model") == "fast"
        assert degraded and err == pytest.approx(0.2)

    def test_simulator_tiers_need_accelerator(self, pool):
        ladder = DegradationLadder()
        with pytest.raises(ConfigError):
            ladder.execute(TIER_FULL, pool["tensor-s"], "mttkrp")
        with pytest.raises(ConfigError):
            ladder.execute("warp-speed", pool["tensor-s"], "mttkrp")

    def test_calibration_is_deterministic_and_positive(self, pool):
        cfg = TensaurusConfig()
        e1 = calibrate_analytic_error(cfg, pool, seed=SEED)
        e2 = calibrate_analytic_error(cfg, pool, seed=SEED)
        assert e1 == e2
        assert 0.0 < e1 < 2.0  # a bound, not an exact match


class TestSyntheticTrace:
    def test_deterministic(self, pool):
        a = synthetic_trace(pool, duration_s=0.3, seed=5)
        b = synthetic_trace(pool, duration_s=0.3, seed=5)
        assert [(r.arrival_s, r.kernel, r.workload, r.priority, r.deadline_s)
                for r in a] == \
               [(r.arrival_s, r.kernel, r.workload, r.priority, r.deadline_s)
                for r in b]

    def test_spike_raises_arrival_density(self, pool):
        reqs = synthetic_trace(
            pool, duration_s=1.0, base_rate=60.0, spike_factor=10.0,
            spike_window=(0.4, 0.6), seed=7,
        )
        inside = sum(1 for r in reqs if 0.4 <= r.arrival_s < 0.6)
        outside = len(reqs) - inside
        # 0.2s at 10x rate should out-arrive the 0.8s at 1x rate.
        assert inside > outside

    def test_validation(self, pool):
        with pytest.raises(ConfigError):
            synthetic_trace(pool, duration_s=0.0)
        with pytest.raises(ConfigError):
            synthetic_trace(pool, spike_window=(0.9, 0.1))


class TestServerDeterminism:
    def test_same_seed_same_decisions(self, pool, trace):
        cfg = ServingConfig(seed=SEED, replicas=2)
        r1 = TensaurusServer(cfg, pool=pool).run_trace(trace)
        r2 = TensaurusServer(cfg, pool=WorkloadPool(seed=SEED)).run_trace(trace)
        assert r1.decision_log == r2.decision_log
        assert [r.log_row() for r in r1.responses] == \
               [r.log_row() for r in r2.responses]

    def test_full_tier_bit_identical_to_direct_run(self, pool, trace):
        result = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        direct = Tensaurus()
        checked = 0
        for resp in result.responses:
            if resp.status != "ok" or resp.tier != TIER_FULL:
                continue
            req = next(r for r in trace if r.request_id == resp.request_id)
            ref = pool[req.workload].run(req.kernel, direct,
                                         compute_output=True)
            assert ref.cycles == resp.report.cycles
            assert np.array_equal(ref.output, resp.report.output)
            checked += 1
            if checked >= 5:
                break
        assert checked > 0


class TestServerOverload:
    def test_guarded_beats_naive_under_spike(self, pool, trace):
        guarded = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        naive = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2, shedding=False),
            pool=pool, calibrate=False,
        ).run_trace(trace)
        assert naive.served_fraction == 1.0  # never sheds...
        assert naive.deadline_hit_rate < 0.5  # ...but collapses on deadlines
        assert guarded.deadline_hit_rate >= 0.95
        assert guarded.counters["rejected"] + guarded.counters["shed"] > 0

    def test_every_request_gets_a_response(self, pool, trace):
        result = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        assert len(result.responses) == len(trace)
        assert [r.request_id for r in result.responses] == \
               sorted(r.request_id for r in trace)

    def test_rejections_carry_retry_after(self, pool, trace):
        result = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        rejected = [r for r in result.responses if r.status == "rejected"]
        assert rejected
        assert all(r.retry_after_s > 0 for r in rejected
                   if r.detail.get("reason") == "token_bucket")

    def test_degradation_under_load(self, pool, trace):
        result = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        tiers = {r.tier for r in result.responses if r.status == "ok"}
        assert TIER_FULL in tiers and len(tiers) > 1
        for resp in result.responses:
            if resp.status == "ok" and resp.tier != TIER_FULL:
                assert resp.degraded
            if resp.status == "ok" and resp.tier == TIER_ANALYTIC:
                assert resp.error_bound > 0

    def test_priority_eviction(self, pool):
        # A tiny queue and a flood of arrivals forces evictions; evicted
        # requests must be strictly lower priority than their evictors.
        reqs = synthetic_trace(
            pool, duration_s=0.3, base_rate=400.0, spike_factor=1.0,
            deadline_s=0.08, seed=9,
        )
        result = TensaurusServer(
            ServingConfig(seed=9, replicas=1, queue_depth=3,
                          bucket_rate=5000.0, bucket_burst=1000),
            pool=pool,
        ).run_trace(reqs)
        assert result.counters["evicted"] > 0
        evicted = {r.request_id for r in result.responses
                   if r.detail.get("reason") == "evicted"}
        by_id = {r.request_id: r for r in reqs}
        assert all(by_id[i].priority < 3 for i in evicted)

    def test_hedging_with_eager_trigger(self, pool):
        reqs = synthetic_trace(
            pool, duration_s=0.2, base_rate=60.0, spike_factor=1.0,
            deadline_s=0.2, seed=13,
        )
        result = TensaurusServer(
            ServingConfig(seed=13, replicas=3, hedge_trigger=1.0,
                          service_jitter=0.8),
            pool=pool,
        ).run_trace(reqs)
        assert result.counters["hedged"] > 0
        hedged = [r for r in result.responses if r.hedged]
        assert hedged
        for resp in hedged:
            # First-wins: a hedged response finishes no later than the
            # loser would have.
            assert resp.finish_s is not None

    def test_summary_shape(self, pool, trace):
        result = TensaurusServer(
            ServingConfig(seed=SEED, replicas=2), pool=pool
        ).run_trace(trace)
        summary = result.summary()
        for key in ("requests", "served", "deadline_hit_rate",
                    "degraded_fraction", "analytic_error_bound",
                    "latency_p99_s"):
            assert key in summary
        assert summary["requests"] == len(trace)
