"""Tests for nonnegative CP, format statistics and the config sweep."""

import numpy as np
import pytest

from repro.factorization import accelerated_cp_nonneg, cp_nonneg
from repro.formats import (
    CISRMatrix,
    CISSTensor,
    COOMatrix,
    CSFTensor,
    CSRMatrix,
    ExtendedCSRTensor,
    HiCOOTensor,
    format_stats,
)
from repro.sim import TensaurusConfig, pareto_front, render_sweep, sweep_configs
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError, FormatError, KernelError
from repro.util.rng import make_rng

from tests.conftest import random_tensor


def nonneg_low_rank(rng, shape=(9, 8, 7), rank=3):
    facs = [rng.random((s, rank)) for s in shape]
    return np.einsum("ir,jr,kr->ijk", *facs), facs


def _parallel_sweep_runner(acc):
    """Module-level runner (so it pickles into process-pool workers)."""
    rng = make_rng(5)
    tensor = random_tensor(shape=(40, 30, 20), density=0.08, seed=77)
    b = rng.random((30, 16))
    c = rng.random((20, 16))
    return acc.run_mttkrp(tensor, b, c, compute_output=False)


class TestNonnegCP:
    def test_recovers_nonneg_model(self, rng):
        x, _facs = nonneg_low_rank(rng)
        model = cp_nonneg(x, rank=3, num_iters=400, tol=0, seed=2)
        assert model.fit > 0.99
        for f in model.factors:
            assert np.all(f >= 0)
        assert np.all(model.weights >= 0)

    def test_fit_trace_improves(self, rng):
        x, _f = nonneg_low_rank(rng)
        model = cp_nonneg(x, rank=3, num_iters=50, seed=0)
        assert model.fit_trace[-1] > model.fit_trace[0]

    def test_reconstruction_nonnegative(self, rng):
        x, _f = nonneg_low_rank(rng)
        model = cp_nonneg(x, rank=3, num_iters=50, seed=0)
        assert np.all(model.to_dense() >= -1e-9)

    def test_sparse_input(self):
        rng = make_rng(3)
        x, _f = nonneg_low_rank(rng)
        mask = rng.random(x.shape) < 0.5
        sparse = SparseTensor.from_dense(x * mask)
        model = cp_nonneg(sparse, rank=3, num_iters=30, seed=1)
        assert model.fit > 0.2
        for f in model.factors:
            assert np.all(f >= 0)

    def test_rejects_negative_data(self, rng):
        x = rng.standard_normal((4, 4, 4))
        with pytest.raises(KernelError):
            cp_nonneg(x, rank=2)
        with pytest.raises(KernelError):
            cp_nonneg(SparseTensor.from_dense(x), rank=2)

    def test_validation(self, rng):
        x, _f = nonneg_low_rank(rng)
        with pytest.raises(ConfigError):
            cp_nonneg(x, rank=0)

    def test_accelerated_matches_software(self, rng):
        x, _f = nonneg_low_rank(rng)
        sparse = SparseTensor.from_dense(x)
        sw = cp_nonneg(sparse, rank=2, num_iters=5, seed=4)
        hw = accelerated_cp_nonneg(sparse, rank=2, num_iters=5, seed=4)
        assert hw.decomposition.fit == pytest.approx(sw.fit, abs=1e-10)
        assert len(hw.reports) == 5 * 3

    def test_accelerated_requires_3d(self, rng):
        with pytest.raises(KernelError):
            accelerated_cp_nonneg(rng.random((4, 4)), rank=2)


class TestFormatStats:
    @pytest.fixture(scope="class")
    def tensor(self):
        return random_tensor(shape=(30, 20, 15), density=0.1, seed=120)

    def test_profiles_every_tensor_format(self, tensor):
        encodings = [
            tensor,
            ExtendedCSRTensor.from_sparse(tensor),
            CSFTensor.from_sparse(tensor),
            CISSTensor.from_sparse(tensor, 8),
            HiCOOTensor.from_sparse(tensor, 8),
        ]
        for enc in encodings:
            stats = format_stats(enc)
            assert stats.nnz == tensor.nnz
            assert stats.bytes_per_nnz > 0
            assert stats.index_overhead >= 0
            assert stats.format_name in stats.summary()

    def test_laned_formats_report_balance(self, tensor):
        stats = format_stats(CISSTensor.from_sparse(tensor, 8))
        assert stats.lane_imbalance is not None
        assert stats.lane_imbalance >= 1.0
        assert 0 <= stats.padding_fraction < 1

    def test_matrix_formats(self, rng):
        dense = (rng.random((20, 15)) < 0.3) * (rng.random((20, 15)) + 0.1)
        coo = COOMatrix.from_dense(dense)
        for enc in (coo, CSRMatrix.from_coo(coo), CISRMatrix.from_coo(coo, 4)):
            stats = format_stats(enc)
            assert stats.nnz == coo.nnz

    def test_unknown_object(self):
        with pytest.raises(FormatError):
            format_stats(object())

    def test_empty(self):
        stats = format_stats(SparseTensor.empty((4, 4, 4)))
        assert stats.bytes_per_nnz == 0.0


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

    def test_pareto_front(self, points):
        front = pareto_front(points)
        assert front
        # The front is sorted by MACs and strictly improving in GOP/s.
        gops = [p.gops for p in front]
        assert gops == sorted(gops)
        # Every non-front point is dominated.
        for p in points:
            if p not in front:
                assert any(
                    q.gops >= p.gops and q.config.mac_units <= p.config.mac_units
                    for q in front
                )

    def test_render(self, points):
        text = render_sweep(points)
        assert "GOP/s" in text and "rows" in text
        assert render_sweep([]) == "(no design points)"

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
