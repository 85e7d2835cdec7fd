"""Sweep fan-out: one runner pickle per worker, not per point, and a pool
only when the sweep is large enough to pay for one.

``sweep_configs`` used to re-pickle the runner — and any operand tensors
it closed over — into every design-point submission. It now ships the
runner once through the pool initializer. These tests pin that by
counting serialized payload bytes with a stub executor, plus the
sweep's own choice of pool size and the once-per-runner dedupe of the
unpicklable-runner warning.
"""

import pickle

import numpy as np
import pytest

import repro.sim.sweep as sweep_mod
from repro.sim import sweep_configs, sweep_points
from repro.sim.config import TensaurusConfig
from repro.sim.sweep import _evaluate_point_pooled, _init_pool_worker
from repro.util.errors import ConfigError

from .conftest import random_tensor
from repro.util.rng import make_rng

BASE = TensaurusConfig()
GRID = {"rows": [4, 8], "spm_banks": [4, 8]}

# Big enough that accidental per-point operand pickling is unmistakable.
_BLOB = np.arange(250_000, dtype=np.float64)


def _small_runner(acc):
    t = random_tensor(shape=(16, 12, 10), density=0.2, seed=90)
    rng = make_rng(91)
    return acc.run_mttkrp(
        t, rng.random((12, 6)), rng.random((10, 6)), compute_output=False
    )


class _HeavyRunner:
    """A runner closing over ~2 MB of operands (module-level: pickles)."""

    def __init__(self):
        self.operands = _BLOB.copy()

    def __call__(self, acc):
        return _small_runner(acc)


class _StubFuture:
    def __init__(self, value):
        self._value = value

    def result(self, timeout=None):
        return self._value


class _StubExecutor:
    """In-process ProcessPoolExecutor double that records what a real pool
    would serialize: the initializer payload once, and each submission's
    pickled (fn, args) bytes."""

    instances = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.submit_payloads = []
        self.init_ran = False
        _StubExecutor.instances.append(self)

    def submit(self, fn, *args):
        # A real pool pickles the callable and its arguments per task.
        self.submit_payloads.append(len(pickle.dumps((fn, args))))
        if not self.init_ran and self.initializer is not None:
            self.initializer(*self.initargs)
            self.init_ran = True
        return _StubFuture(fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def stub_pool(monkeypatch):
    _StubExecutor.instances = []
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", _StubExecutor)
    yield _StubExecutor
    sweep_mod._pool_runner = None


class TestRunnerShippedOnce:
    def test_initializer_carries_runner_blob(self, stub_pool, forced_pool):
        runner = _HeavyRunner()
        with forced_pool():
            result = sweep_configs(BASE, GRID, runner)
        assert len(result) == 4 and result.fallback_reason is None
        (pool,) = stub_pool.instances
        assert pool.initializer is _init_pool_worker
        assert pool.initargs == (pickle.dumps(runner),)

    def test_per_point_payload_excludes_operands(self, stub_pool, forced_pool):
        runner = _HeavyRunner()
        runner_bytes = len(pickle.dumps(runner))
        assert runner_bytes > _BLOB.nbytes  # the closure really is heavy
        with forced_pool():
            sweep_configs(BASE, GRID, runner)
        (pool,) = stub_pool.instances
        assert len(pool.submit_payloads) == 4
        for payload in pool.submit_payloads:
            # Submissions carry (config, max_retries, timeout_s) only —
            # orders of magnitude under the operand blob.
            assert payload < runner_bytes / 100

    def test_pooled_worker_requires_initializer(self):
        sweep_mod._pool_runner = None
        with pytest.raises(AssertionError):
            _evaluate_point_pooled(BASE, 0, None)

    def test_real_pool_matches_serial(self, forced_pool):
        serial = sweep_configs(BASE, {"rows": [4, 8]}, _small_runner)
        with forced_pool():
            parallel = sweep_configs(BASE, {"rows": [4, 8]}, _small_runner)
        assert [(p.params, p.report.cycles) for p in serial] == [
            (p.params, p.report.cycles) for p in parallel
        ]


class TestPoolSize:
    def test_pool_follows_point_count_and_usable_cpus(
        self, stub_pool, monkeypatch
    ):
        per_worker = sweep_mod._POINTS_PER_WORKER

        def pools(points, cpus):
            monkeypatch.setattr(
                sweep_mod.os, "sched_getaffinity",
                lambda pid: set(range(cpus)),
            )
            stub_pool.instances = []
            result = sweep_points(BASE, [{"rows": 4}] * points, _small_runner)
            assert len(result) == points
            return [pool.max_workers for pool in stub_pool.instances]

        # Fewer than two workers' worth of points: no executor at all.
        assert pools(per_worker, cpus=2) == []
        assert pools(2 * per_worker - 1, cpus=2) == []
        # From two workers' worth on, one pool, capped by the usable CPUs.
        assert pools(2 * per_worker, cpus=2) == [2]
        assert pools(4 * per_worker, cpus=2) == [2]
        assert pools(3 * per_worker, cpus=4) == [3]
        # A process confined to one CPU never pools.
        assert pools(16 * per_worker, cpus=1) == []


class TestWarningDedupe:
    def _unpicklable(self):
        captured = []
        return lambda acc: captured.append(1) or _small_runner(acc)

    def test_warning_once_per_runner(self, caplog, forced_pool):
        runner = self._unpicklable()
        with caplog.at_level("WARNING", logger="repro.sim.sweep"), \
                forced_pool():
            first = sweep_configs(BASE, {"rows": [4, 8]}, runner)
            second = sweep_configs(BASE, {"rows": [4, 8]}, runner)
        warnings = [
            r for r in caplog.records if "not picklable" in r.getMessage()
        ]
        assert len(warnings) == 1
        # The fallback itself still happens (and is still recorded) twice.
        assert first.fallback_reason and second.fallback_reason
        assert len(first) == len(second) == 2

    def test_distinct_runners_each_warn(self, caplog, forced_pool):
        with caplog.at_level("WARNING", logger="repro.sim.sweep"), \
                forced_pool():
            sweep_configs(BASE, {"rows": [4, 8]}, self._unpicklable())
            sweep_configs(BASE, {"rows": [4, 8]}, self._unpicklable())
        warnings = [
            r for r in caplog.records if "not picklable" in r.getMessage()
        ]
        assert len(warnings) == 2


class TestSweepPoints:
    def test_matches_sweep_configs_grid(self):
        from repro.sim import sweep_points

        grid = sweep_configs(BASE, GRID, _small_runner)
        points = sweep_points(
            BASE, [p.params for p in grid], _small_runner
        )
        assert [p.report.cycles for p in points] == [
            p.report.cycles for p in grid
        ]
        assert [p.params for p in points] == [p.params for p in grid]

    def test_preserves_input_order_and_duplicates(self):
        from repro.sim import sweep_points

        pts = [{"rows": 8}, {"rows": 4}, {"rows": 8}]
        result = sweep_points(BASE, pts, _small_runner)
        assert [p.params for p in result] == pts
        assert result[0].report.cycles == result[2].report.cycles

    def test_empty_points_raises(self):
        from repro.sim import sweep_points

        with pytest.raises(ConfigError):
            sweep_points(BASE, [], _small_runner)

    def test_unknown_field_raises(self):
        from repro.sim import sweep_points

        with pytest.raises(ConfigError, match="rowz"):
            sweep_points(BASE, [{"rowz": 8}], _small_runner)

    def test_parallel_matches_serial(self, forced_pool):
        pts = [{"rows": 4}, {"rows": 8}]
        serial = sweep_points(BASE, pts, _small_runner)
        with forced_pool():
            parallel = sweep_points(BASE, pts, _small_runner)
        assert [p.report.cycles for p in serial] == [
            p.report.cycles for p in parallel
        ]
