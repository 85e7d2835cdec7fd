"""Tests for the config sweep."""

import pytest

from repro.sim import TensaurusConfig, sweep_configs
from repro.util.errors import ConfigError
from repro.util.rng import make_rng

from tests.conftest import random_tensor


def _parallel_sweep_runner(acc):
    """Module-level runner (so it pickles into process-pool workers)."""
    rng = make_rng(5)
    tensor = random_tensor(shape=(40, 30, 20), density=0.08, seed=77)
    b = rng.random((30, 16))
    c = rng.random((20, 16))
    return acc.run_mttkrp(tensor, b, c, compute_output=False)


class TestSweep:
    def _runner(self, tensor, b, c):
        def run(acc):
            return acc.run_mttkrp(tensor, b, c, compute_output=False)
        return run

    @pytest.fixture(scope="class")
    def points(self):
        rng = make_rng(5)
        tensor = random_tensor(shape=(60, 40, 30), density=0.05, seed=121)
        b = rng.random((40, 32))
        c = rng.random((30, 32))
        return sweep_configs(
            TensaurusConfig(),
            {"rows": [4, 8], "vlen": [2, 4]},
            self._runner(tensor, b, c),
        )

    def test_full_grid(self, points):
        assert len(points) == 4
        combos = {(p.params["rows"], p.params["vlen"]) for p in points}
        assert combos == {(4, 2), (4, 4), (8, 2), (8, 4)}

    def test_reports_attached(self, points):
        for p in points:
            assert p.report.cycles > 0
            assert p.config.rows == p.params["rows"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            sweep_configs(TensaurusConfig(), {}, lambda acc: None)
        with pytest.raises(ConfigError):
            sweep_configs(TensaurusConfig(), {"warp_size": [32]}, lambda acc: None)

    def test_parallel_matches_serial(self, forced_pool):
        grid = {"rows": [4, 8], "spm_banks": [4, 8]}
        serial = sweep_configs(TensaurusConfig(), grid, _parallel_sweep_runner)
        with forced_pool():
            par = sweep_configs(TensaurusConfig(), grid, _parallel_sweep_runner)
        assert [p.params for p in par] == [p.params for p in serial]
        assert [p.report.cycles for p in par] == [p.report.cycles for p in serial]

    def test_unpicklable_runner_falls_back_serial(self, caplog, forced_pool):
        captured = []
        with caplog.at_level("WARNING", logger="repro.sim.sweep"), \
                forced_pool():
            points = sweep_configs(
                TensaurusConfig(),
                {"rows": [4, 8]},
                lambda acc: captured.append(acc) or _parallel_sweep_runner(acc),
            )
        assert any("not picklable" in r.getMessage() for r in caplog.records)
        assert len(points) == 2
        assert len(captured) == 2  # the fallback ran in-process
