"""Tests for host-side resilience (:mod:`repro.resilience` and its users):
retry policies, factor checkpoints, the device watchdog / RESET-retry path,
CP-ALS / Tucker resume-after-fault, and sweep robustness."""

import re
import time

import numpy as np
import pytest

from repro.factorization.accelerated import (
    accelerated_cp_als,
    accelerated_tucker_hooi,
)
from repro.resilience import CheckpointStore, RetryPolicy, retry_call
from repro.sim import (
    FaultPlan,
    SweepResult,
    Tensaurus,
    TensaurusConfig,
    sweep_configs,
)
from repro.sim.driver import TensaurusDevice, assemble_mttkrp
from repro.sim.faults import LAUNCH_ABORT, WATCHDOG
from repro.util.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
)
from repro.util.rng import make_rng

from tests.conftest import random_tensor


class TestErrorHierarchy:
    def test_fault_error_is_a_simulation_error(self):
        assert issubclass(FaultError, SimulationError)
        assert issubclass(FaultError, ReproError)
        with pytest.raises(SimulationError):
            raise FaultError("boom")

    def test_retry_exhausted_is_repro_and_runtime_error(self):
        assert issubclass(RetryExhaustedError, ReproError)
        assert issubclass(RetryExhaustedError, RuntimeError)
        err = RetryExhaustedError("gave up", attempts=4, last_error=ValueError("x"))
        assert err.attempts == 4
        assert isinstance(err.last_error, ValueError)
        # One except ReproError at the top of a script catches everything.
        with pytest.raises(ReproError):
            raise err


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base_s=0.1, backoff_factor=2.0,
            max_backoff_s=0.5,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(max_retries=3, jitter=0.5, seed=7)
        b = RetryPolicy(max_retries=3, jitter=0.5, seed=7)
        assert a.delays() == b.delays()  # reproducible
        plain = RetryPolicy(max_retries=3)
        for jittered, base in zip(a.delays(), plain.delays()):
            assert 0.5 * base <= jittered <= 1.5 * base

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)


class TestRetryCall:
    def test_succeeds_after_failures(self):
        calls = []
        sleeps = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise FaultError("flaky")
            return "done"

        policy = RetryPolicy(max_retries=3, backoff_base_s=0.01)
        result = retry_call(flaky, policy, sleep=sleeps.append)
        assert result == "done"
        assert calls == [0, 1, 2]  # fn sees the attempt index
        assert sleeps == [policy.delay(0), policy.delay(1)]

    def test_exhaustion_raises_with_cause(self):
        def always(attempt):
            raise FaultError(f"attempt {attempt}")

        with pytest.raises(RetryExhaustedError) as info:
            retry_call(always, RetryPolicy(max_retries=2), sleep=lambda _s: None)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, FaultError)
        assert isinstance(info.value.__cause__, FaultError)

    def test_unlisted_exceptions_propagate(self):
        def bad(attempt):
            raise ValueError("not a fault")

        with pytest.raises(ValueError):
            retry_call(bad, RetryPolicy(max_retries=2), sleep=lambda _s: None)

    def test_on_retry_hook(self):
        seen = []

        def flaky(attempt):
            if attempt == 0:
                raise FaultError("once")
            return attempt

        retry_call(
            flaky, RetryPolicy(max_retries=2), sleep=lambda _s: None,
            on_retry=lambda a, e: seen.append((a, type(e).__name__)),
        )
        assert seen == [(0, "FaultError")]


class TestCheckpointStore:
    def test_keeps_newest_and_full_fit_history(self):
        store = CheckpointStore(keep=2)
        for i in range(5):
            store.save(i, [np.full((2, 2), float(i))], fit=0.1 * i)
        assert store.iterations() == [3, 4]
        assert store.latest().iteration == 4
        assert store.saves == 5
        # The fit history survives checkpoint eviction.
        assert store.fit_trace() == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_deep_copies(self):
        store = CheckpointStore()
        factors = [np.ones((2, 2))]
        weights = np.ones(2)
        store.save(0, factors, weights=weights)
        factors[0][:] = 99.0
        weights[:] = 99.0
        ckpt = store.latest()
        assert np.all(ckpt.factors[0] == 1.0)
        assert np.all(ckpt.weights == 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CheckpointStore(keep=0)


def _device_program():
    t = random_tensor(seed=44)
    rng = make_rng(45)
    return assemble_mttkrp(t, rng.random((9, 5)), rng.random((7, 5)))


class TestDeviceWatchdog:
    def test_breach_raises_and_logs(self):
        ticks = iter(range(0, 10_000, 10))
        device = TensaurusDevice(
            watchdog_timeout_s=1.0, clock=lambda: float(next(ticks)),
        )
        with pytest.raises(FaultError, match="watchdog"):
            device.execute(_device_program())
        assert device.stats["watchdog_trips"] == 1
        assert [e.kind for e in device.fault_log] == [WATCHDOG]

    def test_fast_launch_passes(self):
        device = TensaurusDevice(watchdog_timeout_s=120.0)
        reports = device.execute(_device_program())
        assert len(reports) == 1
        assert device.stats["watchdog_trips"] == 0


class TestDeviceResetRetry:
    def test_faults_are_retried_to_success(self):
        # Seed 0 aborts launches on the first three (run, epoch) draws and
        # succeeds on the fourth — a deterministic 3-retry scenario.
        plan = FaultPlan(seed=0, launch_abort_rate=0.7)
        policy = RetryPolicy(max_retries=30, backoff_base_s=0.001)
        sleeps = []
        device = TensaurusDevice(
            fault_plan=plan, retry_policy=policy, sleep=sleeps.append,
        )
        reports = device.execute(_device_program())
        assert len(reports) == 1
        assert device.stats["faults"] >= 1
        assert device.stats["retries"] == device.stats["faults"]
        assert device.stats["resets"] == device.stats["retries"]
        # Every aborted launch leaves an entry in the device's fault log.
        assert len(device.fault_log) == device.stats["faults"]
        assert all(e.kind == LAUNCH_ABORT for e in device.fault_log)
        assert sleeps == [policy.delay(a) for a in range(len(sleeps))]
        # Retries replay deterministically: a second identical device pays
        # the same number of them.
        again = TensaurusDevice(
            fault_plan=plan, retry_policy=policy, sleep=lambda _s: None,
        )
        again.execute(_device_program())
        assert again.stats == device.stats

    def test_no_policy_propagates_fault(self):
        device = TensaurusDevice(
            fault_plan=FaultPlan(seed=3, launch_abort_rate=1.0)
        )
        with pytest.raises(FaultError):
            device.execute(_device_program())
        assert device.stats["faults"] == 1

    def test_exhaustion(self):
        device = TensaurusDevice(
            fault_plan=FaultPlan(seed=3, launch_abort_rate=1.0),
            retry_policy=RetryPolicy(max_retries=2),
            sleep=lambda _s: None,
        )
        with pytest.raises(RetryExhaustedError):
            device.execute(_device_program())
        assert device.stats["faults"] == 3


class TestFactorizationResume:
    def _tensor(self):
        return random_tensor(shape=(10, 8, 6), density=0.3, seed=3)

    def test_cp_als_resumes_to_fault_free_factors(self):
        t = self._tensor()
        clean = accelerated_cp_als(t, rank=3, num_iters=6, seed=7)
        plan = FaultPlan(seed=11, launch_abort_rate=0.15)
        sleeps = []
        run = accelerated_cp_als(
            t, rank=3, num_iters=6, seed=7,
            accelerator=Tensaurus(fault_plan=plan),
            retry_policy=RetryPolicy(max_retries=25, backoff_base_s=0.001),
            sleep=sleeps.append,
        )
        assert run.resilience["fault_retries"] > 0
        assert run.resilience["resumed_iteration"] > 0
        assert run.resilience["checkpoints"] >= 6
        assert len(sleeps) == run.resilience["fault_retries"]
        # Correctness despite the faults: same model, same full fit trace.
        assert np.allclose(
            run.decomposition.to_dense(), clean.decomposition.to_dense(),
            atol=1e-8,
        )
        assert np.allclose(
            run.decomposition.fit_trace, clean.decomposition.fit_trace,
            atol=1e-8,
        )
        # The faulty run really did pay extra kernel launches.
        assert len(run.reports) > len(clean.reports)

    def test_tucker_resumes_to_fault_free_model(self):
        t = self._tensor()
        clean = accelerated_tucker_hooi(t, ranks=(3, 2, 2), num_iters=4)
        plan = FaultPlan(seed=19, launch_abort_rate=0.15)
        run = accelerated_tucker_hooi(
            t, ranks=(3, 2, 2), num_iters=4,
            accelerator=Tensaurus(fault_plan=plan),
            retry_policy=RetryPolicy(max_retries=25, backoff_base_s=0.001),
            sleep=lambda _s: None,
        )
        assert run.resilience["fault_retries"] > 0
        assert np.allclose(
            run.decomposition.to_dense(), clean.decomposition.to_dense(),
            atol=1e-8,
        )

    def test_explicit_store_is_used(self):
        t = self._tensor()
        store = CheckpointStore(keep=1)
        run = accelerated_cp_als(
            t, rank=3, num_iters=3, seed=7,
            checkpoint_store=store,
        )
        assert store.saves == 3
        assert run.resilience.get("checkpoints") == 3
        assert run.decomposition.fit_trace == store.fit_trace()

    def test_no_policy_propagates_fault(self):
        plan = FaultPlan(seed=11, launch_abort_rate=1.0)
        with pytest.raises(FaultError):
            accelerated_cp_als(
                self._tensor(), rank=3, num_iters=2, seed=7,
                accelerator=Tensaurus(fault_plan=plan),
            )

    def test_exhaustion_raises(self):
        plan = FaultPlan(seed=11, launch_abort_rate=1.0)
        with pytest.raises(RetryExhaustedError):
            accelerated_cp_als(
                self._tensor(), rank=3, num_iters=2, seed=7,
                accelerator=Tensaurus(fault_plan=plan),
                retry_policy=RetryPolicy(max_retries=2),
                sleep=lambda _s: None,
            )


# ----------------------------------------------------------------------
# Sweep robustness. Runners live at module level so they pickle.
# ----------------------------------------------------------------------
def _sweep_runner(acc):
    t = random_tensor(shape=(16, 12, 10), density=0.2, seed=90)
    rng = make_rng(91)
    return acc.run_mttkrp(
        t, rng.random((12, 6)), rng.random((10, 6)), compute_output=False
    )


def _fail_rows4_runner(acc):
    if acc.config.rows == 4:
        raise FaultError("injected per-point fault")
    return _sweep_runner(acc)


def _fail_first_attempt_runner(acc):
    if acc.fault_state.epoch == 0:
        raise SimulationError("flaky first attempt")
    return _sweep_runner(acc)


def _slow_runner(acc):
    time.sleep(0.05)
    return _sweep_runner(acc)


BASE = TensaurusConfig()
GRID = {"rows": [4, 8]}


class TestSweepRobustness:
    def test_result_is_still_a_list(self):
        result = sweep_configs(BASE, GRID, _sweep_runner)
        assert isinstance(result, list) and isinstance(result, SweepResult)
        assert len(result) == 2
        assert result.failures == [] and result.fallback_reason is None

    def test_unpicklable_runner_warns_and_records_reason(
        self, caplog, forced_pool
    ):
        captured = []
        runner = lambda acc: captured.append(1) or _sweep_runner(acc)  # noqa: E731
        with caplog.at_level("WARNING", logger="repro.sim.sweep"), \
                forced_pool():
            result = sweep_configs(BASE, GRID, runner)
        assert any("not picklable" in r.getMessage() for r in caplog.records)
        assert result.fallback_reason is not None
        assert len(result) == 2 and len(captured) == 2

    def test_allow_partial_records_failures(self):
        result = sweep_configs(
            BASE, GRID, _fail_rows4_runner, max_retries=1, allow_partial=True
        )
        assert [p.params for p in result] == [{"rows": 8}]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.params == {"rows": 4}
        assert failure.attempts == 2  # initial try + 1 retry
        assert "injected" in failure.reason

    def test_failure_without_allow_partial_raises(self):
        with pytest.raises(RetryExhaustedError):
            sweep_configs(BASE, GRID, _fail_rows4_runner)

    def test_retry_on_fresh_epoch_succeeds(self):
        # Fails on epoch 0, succeeds on the retry's epoch 1.
        result = sweep_configs(
            BASE, GRID, _fail_first_attempt_runner, max_retries=1
        )
        assert len(result) == 2
        with pytest.raises(RetryExhaustedError):
            sweep_configs(BASE, GRID, _fail_first_attempt_runner)

    def test_serial_timeout_detected(self):
        result = sweep_configs(
            BASE, {"rows": [8]}, _slow_runner, timeout_s=0.01,
            allow_partial=True,
        )
        assert len(result) == 0
        assert len(result.failures) == 1
        assert "timeout" in result.failures[0].reason

    def test_timeout_rule_same_serial_and_pooled(self, forced_pool):
        # Each point is timed where it runs and never interrupted: both
        # paths let the 0.05 s points finish, then report them timed out.
        def failures():
            result = sweep_configs(
                BASE, GRID, _slow_runner, timeout_s=0.01, allow_partial=True
            )
            assert len(result) == 0
            out = []
            for f in result.failures:
                took = re.fullmatch(
                    r"timeout after 0\.01s \((\d+\.\d+)s\)", f.reason
                )
                assert took and float(took.group(1)) >= 0.05, f.reason
                out.append((f.params, f.config, f.attempts))
            return out

        serial = failures()
        with forced_pool():
            pooled = failures()
        assert serial == pooled == [
            ({"rows": 4}, BASE.scaled(rows=4), 1),
            ({"rows": 8}, BASE.scaled(rows=8), 1),
        ]

    def test_validation(self):
        with pytest.raises(ConfigError):
            sweep_configs(BASE, GRID, _sweep_runner, max_retries=-1)
        with pytest.raises(ConfigError):
            sweep_configs(BASE, GRID, _sweep_runner, timeout_s=0.0)

    def test_worker_count_does_not_change_fault_draws(self, forced_pool):
        base = TensaurusConfig(
            fault_plan=FaultPlan(
                seed=13, spm_bitflip_rate=0.1, hbm_stall_rate=0.1
            )
        )
        grid = {"rows": [4, 8], "spm_banks": [4, 8]}
        serial = sweep_configs(base, grid, _sweep_runner)
        with forced_pool():
            parallel = sweep_configs(base, grid, _sweep_runner)

        def key(points):
            return [
                (p.params, p.report.cycles, sorted(p.report.faults.items()))
                for p in points
            ]

        assert key(serial) == key(parallel)


class TestDecorrelatedJitter:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_retries=6, backoff_base_s=0.01, max_backoff_s=0.5,
            jitter_mode="decorrelated", seed=7,
        )
        first = policy.delays()
        assert first == policy.delays()  # chain replays exactly
        assert all(0.01 <= d <= 0.5 for d in first)
        # Decorrelated draws must not be the plain exponential schedule.
        plain = RetryPolicy(
            max_retries=6, backoff_base_s=0.01, max_backoff_s=0.5
        ).delays()
        assert first != plain

    def test_each_attempt_stable_regardless_of_query_order(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base_s=0.02, jitter_mode="decorrelated"
        )
        # Querying attempt 3 directly equals querying via the full list.
        assert policy.delay(3) == policy.delays()[3]

    def test_seed_changes_schedule(self):
        mk = lambda s: RetryPolicy(
            max_retries=4, backoff_base_s=0.01,
            jitter_mode="decorrelated", seed=s,
        ).delays()
        assert mk(1) != mk(2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_mode="sideways")
        with pytest.raises(ConfigError):
            RetryPolicy(max_elapsed_s=-1.0)


class TestMaxElapsedBudget:
    def _fake_clock(self, step=0.1):
        state = {"t": 0.0}

        def clock():
            state["t"] += step
            return state["t"]

        return clock

    def test_retry_call_stops_before_overshooting(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise FaultError("still down")

        policy = RetryPolicy(
            max_retries=10, backoff_base_s=1.0, backoff_factor=1.0,
            max_elapsed_s=1.5,
        )
        slept = []
        with pytest.raises(RetryExhaustedError) as info:
            retry_call(
                fn, policy, sleep=slept.append, clock=self._fake_clock()
            )
        # Far fewer than 11 attempts: the budget cut the loop short.
        assert len(calls) < 11
        assert "budget" in str(info.value)

    def test_for_deadline_clamps(self):
        policy = RetryPolicy(max_retries=3, max_elapsed_s=5.0)
        tightened = policy.for_deadline(1.0)
        assert tightened.max_elapsed_s == 1.0
        assert tightened.max_retries == 3  # everything else preserved
        # An already-tighter budget is kept.
        assert policy.for_deadline(9.0).max_elapsed_s == 5.0

    def test_for_deadline_elapsed_raises_immediately(self):
        # A deadline already in the past must not clamp to a zero budget
        # (which would still burn one doomed attempt in retry_call) —
        # it raises before any work starts.
        policy = RetryPolicy(max_retries=3, max_elapsed_s=5.0)
        with pytest.raises(DeadlineExceededError) as info:
            policy.for_deadline(-2.0)
        assert info.value.deadline_s == -2.0
        with pytest.raises(DeadlineExceededError):
            policy.for_deadline(0.0)

    def test_no_budget_runs_full_schedule(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise FaultError("down")

        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        with pytest.raises(RetryExhaustedError):
            retry_call(fn, policy, sleep=lambda s: None)
        assert len(calls) == 3


class TestCheckpointPersistence:
    def _store(self, tmp_path):
        from repro.artifacts import ArtifactStore

        return ArtifactStore(root=tmp_path / "ckpts")

    def test_write_through_and_restore(self, tmp_path):
        store = self._store(tmp_path)
        ckpts = CheckpointStore(keep=2, store=store, run_key="run-a")
        rng = make_rng(3)
        for it in range(4):
            ckpts.save(it, [rng.standard_normal((4, 2))], fit=0.1 * it)
        assert ckpts.persisted_iterations() == [0, 1, 2, 3]
        # A fresh store instance (new process) restores the newest.
        resumed = CheckpointStore(keep=2, store=store, run_key="run-a")
        ckpt = resumed.restore_persisted()
        assert ckpt is not None and ckpt.iteration == 3
        assert resumed.latest().iteration == 3

    def test_corrupted_checkpoint_skipped_with_warning(self, tmp_path, caplog):
        import logging

        store = self._store(tmp_path)
        ckpts = CheckpointStore(keep=3, store=store, run_key="run-b")
        rng = make_rng(5)
        for it in range(3):
            ckpts.save(it, [rng.standard_normal((4, 2))], fit=float(it))
        # Corrupt the newest blob on disk.
        path = store.path_for(
            CheckpointStore._NAMESPACE, ("run-b", 2)
        )
        path.write_bytes(b"not a pickle")
        fresh = CheckpointStore(keep=3, store=store, run_key="run-b")
        with caplog.at_level(logging.WARNING):
            ckpt = fresh.load_persisted()
        assert ckpt is not None and ckpt.iteration == 1  # fell back
        assert any("skipping" in r.message or "unreadable" in r.message
                   for r in caplog.records)

    def test_tampered_payload_fails_fingerprint(self, tmp_path, caplog):
        import logging
        import pickle

        store = self._store(tmp_path)
        ckpts = CheckpointStore(keep=2, store=store, run_key="run-c")
        ckpt = ckpts.save(0, [np.ones((2, 2))], fit=0.5)
        path = store.path_for(CheckpointStore._NAMESPACE, ("run-c", 0))
        payload = pickle.loads(path.read_bytes())
        payload["checkpoint"].factors[0][0, 0] = 99.0  # bit-rot
        path.write_bytes(pickle.dumps(payload))
        with caplog.at_level(logging.WARNING):
            assert ckpts.load_persisted() is None
        assert any("fingerprint" in r.message for r in caplog.records)

    def test_runs_are_namespaced(self, tmp_path):
        store = self._store(tmp_path)
        a = CheckpointStore(store=store, run_key="a")
        b = CheckpointStore(store=store, run_key="b")
        a.save(0, [np.ones((2, 2))])
        assert b.persisted_iterations() == []
        assert b.load_persisted() is None

    def test_no_store_is_a_noop(self):
        ckpts = CheckpointStore(keep=2)
        ckpts.save(0, [np.ones((2, 2))])
        assert ckpts.persisted_iterations() == []
        assert ckpts.restore_persisted() is None

    def test_prune_trims_disk_and_memory(self, tmp_path):
        store = self._store(tmp_path)
        ckpts = CheckpointStore(keep=8, store=store, run_key="run-p")
        rng = make_rng(11)
        for it in range(6):
            ckpts.save(it, [rng.standard_normal((4, 2))], fit=0.1 * it)
        assert ckpts.persisted_iterations() == [0, 1, 2, 3, 4, 5]
        dropped = ckpts.prune(keep_latest=2)
        assert dropped == 4
        assert ckpts.persisted_iterations() == [4, 5]
        assert ckpts.iterations() == [4, 5]
        # The newest checkpoint still restores in a fresh process.
        resumed = CheckpointStore(keep=8, store=store, run_key="run-p")
        ckpt = resumed.restore_persisted()
        assert ckpt is not None and ckpt.iteration == 5
        # Pruned blobs are really gone from disk.
        for it in range(4):
            path = store.path_for(
                CheckpointStore._NAMESPACE, ("run-p", it)
            )
            assert not path.exists()
        # Fit history survives pruning.
        assert len(ckpts.fit_trace()) == 6

    def test_prune_defaults_to_keep_and_validates(self, tmp_path):
        store = self._store(tmp_path)
        ckpts = CheckpointStore(keep=2, store=store, run_key="run-q")
        for it in range(5):
            ckpts.save(it, [np.ones((2, 2)) * it])
        # In-memory ring already holds only ``keep``; prune() aligns the
        # persisted set with it.
        assert ckpts.prune() == 3
        assert ckpts.persisted_iterations() == [3, 4]
        assert ckpts.prune() == 0  # idempotent
        with pytest.raises(ConfigError):
            ckpts.prune(keep_latest=0)

    def test_prune_without_store_trims_memory_only(self):
        ckpts = CheckpointStore(keep=8)
        for it in range(5):
            ckpts.save(it, [np.ones((2, 2))])
        assert ckpts.prune(keep_latest=1) == 4
        assert ckpts.iterations() == [4]
