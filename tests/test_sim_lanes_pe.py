"""Agreement tests between the exact PE-lane interpreter and the vectorized
lane analyzer — the two timing engines must match cycle-for-cycle — plus
functional tests of the lane interpreter against the reference kernels and
of the segmented batch analyzer against both."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import CISSMatrix, CISSTensor, COOMatrix
from repro.kernels import mttkrp_sparse, spmm, spmv, ttmc_sparse
from repro.formats.csr import CSRMatrix
from repro.sim.batch import TilePartition, analyze_tile_stream
from repro.sim.config import TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.lanes import analyze_lanes
from repro.sim.pe import PELane
from repro.tensor import SparseTensor
from repro.util.errors import SimulationError

from tests.conftest import random_tensor

CFG = TensaurusConfig()


def lane_cycle_totals(ciss, costs):
    """Interpreter per-lane cycles (timing only: fibers not materialized)."""
    fiber0 = np.ones((max(ciss.shape), 4))
    fiber1 = np.ones((max(ciss.shape), 4)) if costs.uses_fibers else None
    out_cols = (4, 4) if costs.kernel in ("spttmc", "dttmc") else (4,)
    totals = []
    for lane in range(ciss.num_lanes):
        pe = PELane(costs, fiber0, fiber1, f1_tile=4)
        out = np.zeros((max(ciss.shape),) + out_cols)
        res = pe.run(ciss.lane_records(lane), out)
        totals.append(res.cycles)
    return np.array(totals)


class TestCycleAgreement:
    @pytest.mark.parametrize("kernel", ["spmttkrp", "spttmc"])
    @pytest.mark.parametrize("lanes", [1, 3, 8])
    def test_tensor_kernels(self, kernel, lanes):
        t = random_tensor(shape=(14, 10, 9), density=0.2, seed=21)
        ciss = CISSTensor.from_sparse(t, lanes)
        costs = kernel_costs(kernel, CFG, fiber_elems=16, f1_tile=4)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, CFG.spm_banks)
        assert np.array_equal(stats.lane_cycles, lane_cycle_totals(ciss, costs))

    @pytest.mark.parametrize("kernel", ["spmm", "spmv"])
    def test_matrix_kernels(self, rng, kernel):
        dense = (rng.random((20, 15)) < 0.3) * rng.standard_normal((20, 15))
        coo = COOMatrix.from_dense(dense)
        ciss = CISSMatrix.from_coo(coo, 4)
        costs = kernel_costs(kernel, CFG, fiber_elems=16)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, CFG.spm_banks)
        fiber0 = np.ones((15, 4)) if kernel == "spmm" else np.ones(15)
        totals = []
        for lane in range(4):
            pe = PELane(costs, fiber0)
            out = np.zeros((20, 4)) if kernel == "spmm" else np.zeros(20)
            totals.append(pe.run(ciss.lane_records(lane), out).cycles)
        assert np.array_equal(stats.lane_cycles, np.array(totals))

    def test_ops_agree(self):
        t = random_tensor(shape=(10, 8, 6), density=0.25, seed=3)
        ciss = CISSTensor.from_sparse(t, 4)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=8)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 1)
        fiber0 = np.ones((max(t.shape), 4))
        total_ops = 0
        for lane in range(4):
            pe = PELane(costs, fiber0, fiber0)
            out = np.zeros((max(t.shape), 4))
            total_ops += pe.run(ciss.lane_records(lane), out).ops
        assert total_ops == stats.ops


class TestFunctionalExecution:
    """The PE dataflow over the CISS stream must compute the actual kernel."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mttkrp(self, rng, mode):
        t = random_tensor(seed=5)
        rest = [m for m in range(3) if m != mode]
        b = rng.standard_normal((t.shape[rest[0]], 6))
        c = rng.standard_normal((t.shape[rest[1]], 6))
        ciss = CISSTensor.from_sparse(t, 4, mode=mode)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=6)
        out = np.zeros((t.shape[mode], 6))
        for lane in range(4):
            pe = PELane(costs, fiber0=c, fiber1=b)
            pe.run(ciss.lane_records(lane), out)
        assert np.allclose(out, mttkrp_sparse(t, [b, c], mode))

    def test_ttmc(self, rng):
        t = random_tensor(seed=6)
        b = rng.standard_normal((t.shape[1], 3))
        c = rng.standard_normal((t.shape[2], 5))
        ciss = CISSTensor.from_sparse(t, 4)
        costs = kernel_costs("spttmc", CFG, fiber_elems=5, f1_tile=3)
        out = np.zeros((t.shape[0], 3, 5))
        for lane in range(4):
            pe = PELane(costs, fiber0=c, fiber1=b, f1_tile=3)
            pe.run(ciss.lane_records(lane), out)
        assert np.allclose(out, ttmc_sparse(t, [b, c], 0))

    def test_spmm(self, rng):
        dense = (rng.random((12, 9)) < 0.4) * rng.standard_normal((12, 9))
        coo = COOMatrix.from_dense(dense)
        b = rng.standard_normal((9, 5))
        ciss = CISSMatrix.from_coo(coo, 3)
        costs = kernel_costs("spmm", CFG, fiber_elems=5)
        out = np.zeros((12, 5))
        for lane in range(3):
            pe = PELane(costs, fiber0=b)
            pe.run(ciss.lane_records(lane), out)
        assert np.allclose(out, spmm(CSRMatrix.from_coo(coo), b))

    def test_spmv(self, rng):
        dense = (rng.random((12, 9)) < 0.4) * rng.standard_normal((12, 9))
        coo = COOMatrix.from_dense(dense)
        x = rng.standard_normal(9)
        ciss = CISSMatrix.from_coo(coo, 3)
        costs = kernel_costs("spmv", CFG, fiber_elems=1)
        out = np.zeros(12)
        for lane in range(3):
            pe = PELane(costs, fiber0=x)
            pe.run(ciss.lane_records(lane), out)
        assert np.allclose(out, spmv(CSRMatrix.from_coo(coo), x))

    def test_missing_fiber1_rejected(self):
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=4)
        with pytest.raises(SimulationError):
            PELane(costs, fiber0=np.ones((4, 4)))


class TestBankConflicts:
    def test_no_conflicts_with_one_bank_worth_of_lanes(self):
        t = random_tensor(seed=9)
        ciss = CISSTensor.from_sparse(t, 1)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=8)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 8)
        assert stats.conflict_stalls == 0  # single lane cannot collide

    def test_dense_kernels_have_no_conflicts(self):
        t = random_tensor(seed=9)
        ciss = CISSTensor.from_sparse(t, 8)
        costs = kernel_costs("dmttkrp", CFG, fiber_elems=8)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 8)
        assert stats.conflict_stalls == 0

    def test_worst_case_conflicts(self):
        # All lanes hit k=0: every entry serializes fully.
        from repro.tensor import SparseTensor
        entries = [((i, 0, 0), float(i + 1)) for i in range(8)]
        t = SparseTensor.from_entries((8, 1, 1), entries)
        ciss = CISSTensor.from_sparse(t, 8)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=8)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 8)
        # One all-NNZ entry with 8 identical banks -> 7 stall cycles.
        assert stats.conflict_stalls == 7

    def test_more_banks_fewer_stalls(self):
        t = random_tensor(shape=(16, 12, 64), density=0.15, seed=30)
        ciss = CISSTensor.from_sparse(t, 8)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=8)
        few = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 2)
        many = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 16)
        assert many.conflict_stalls < few.conflict_stalls


class TestLaneStats:
    def test_empty(self):
        costs = kernel_costs("spmm", CFG, fiber_elems=4)
        stats = analyze_lanes(
            np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0)), costs, 8
        )
        assert stats.compute_cycles == 0
        assert stats.imbalance == 1.0

    def test_counts(self, paper_tensor):
        ciss = CISSTensor.from_sparse(paper_tensor, 2)
        costs = kernel_costs("spmttkrp", CFG, fiber_elems=4)
        stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, 8)
        assert stats.num_nnz == 6
        assert stats.num_headers == 4
        assert stats.num_fibers == 5  # (i,j) fibers in Fig. 4
        assert stats.num_entries == 5


def _per_tile_reference(batch, g, ciss, costs, banks):
    """Assert tile ``g`` of a batch analysis equals its own CISS encoding
    analyzed stand-alone — and that encoding equals the PE interpreter."""
    ref = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, banks)
    assert np.array_equal(batch.lane_cycles[g], ref.lane_cycles)
    assert batch.compute_cycles[g] == ref.compute_cycles
    assert batch.conflict_stalls[g] == ref.conflict_stalls
    assert batch.num_nnz[g] == ref.num_nnz
    assert batch.num_headers[g] == ref.num_headers
    assert batch.num_fibers[g] == ref.num_fibers
    assert batch.num_entries[g] == ref.num_entries
    assert batch.ops[g] == ref.ops
    assert np.array_equal(ref.lane_cycles, lane_cycle_totals(ciss, costs))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 400),
    lanes=st.integers(1, 8),
    kernel=st.sampled_from(["spmttkrp", "spttmc"]),
    i_tile=st.sampled_from([3, 5, 16]),
    j_tile=st.sampled_from([4, 10]),
    k_tile=st.sampled_from([3, 8]),
)
def test_property_batch_analyzer_matches_per_tile_tensor(
    seed, lanes, kernel, i_tile, j_tile, k_tile
):
    """The segmented batch analyzer must agree tile-for-tile, lane-for-lane
    with per-tile CISS encoding + ``analyze_lanes`` and the interpreter."""
    t = random_tensor(shape=(12, 10, 8), density=0.25, seed=seed)
    part = TilePartition(t.coords.T, t.shape, i_tile, j_tile, k_tile)
    costs = kernel_costs(kernel, CFG, fiber_elems=8, f1_tile=4)
    s_col, a_col, k_col = part.stream_columns()
    batch = analyze_tile_stream(
        s_col, a_col, k_col, part.bounds, costs, lanes, CFG.spm_banks
    )
    assert batch.num_tiles == part.num_tiles
    vals_s = t.values[part.order]
    coords_s = np.column_stack(part.coords_s)
    for g, (lo, hi) in enumerate(zip(part.bounds[:-1], part.bounds[1:])):
        sub = SparseTensor(
            t.shape, coords_s[lo:hi], vals_s[lo:hi], canonical=True
        )
        ciss = CISSTensor.from_sparse(sub, lanes, mode=0)
        _per_tile_reference(batch, g, ciss, costs, CFG.spm_banks)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 400),
    lanes=st.integers(1, 6),
    kernel=st.sampled_from(["spmm", "spmv"]),
    i_tile=st.sampled_from([4, 7, 20]),
    j_tile=st.sampled_from([5, 12]),
)
def test_property_batch_analyzer_matches_per_tile_matrix(
    seed, lanes, kernel, i_tile, j_tile
):
    rng = np.random.default_rng(seed)
    dense = (rng.random((18, 14)) < 0.3) * rng.standard_normal((18, 14))
    coo = COOMatrix.from_dense(dense)
    if coo.nnz == 0:
        return
    part = TilePartition((coo.rows, coo.cols), coo.shape, i_tile, j_tile)
    costs = kernel_costs(kernel, CFG, fiber_elems=8)
    r_col, c_col, _ = part.stream_columns()
    batch = analyze_tile_stream(
        r_col, c_col, None, part.bounds, costs, lanes, CFG.spm_banks
    )
    vals_s = coo.vals[part.order]
    rows_s, cols_s = part.coords_s
    for g, (lo, hi) in enumerate(zip(part.bounds[:-1], part.bounds[1:])):
        sub = COOMatrix(
            coo.shape, rows_s[lo:hi], cols_s[lo:hi], vals_s[lo:hi]
        )
        ciss = CISSMatrix.from_coo(sub, lanes)
        _per_tile_reference(batch, g, ciss, costs, CFG.spm_banks)


def test_batch_analyzer_empty_stream():
    costs = kernel_costs("spmm", CFG, fiber_elems=4)
    empty = np.zeros(0, dtype=np.int64)
    batch = analyze_tile_stream(
        empty, empty, None, np.zeros(1, dtype=np.int64), costs, 8, CFG.spm_banks
    )
    assert batch.num_tiles == 0
    assert batch.lane_cycles.shape == (0, 8)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 500),
    lanes=st.integers(1, 8),
    kernel=st.sampled_from(["spmttkrp", "spttmc", "spmm"]),
)
def test_property_interpreter_matches_vectorized(seed, lanes, kernel):
    if kernel == "spmm":
        rng = np.random.default_rng(seed)
        dense = (rng.random((12, 10)) < 0.3) * rng.standard_normal((12, 10))
        ciss = CISSMatrix.from_coo(COOMatrix.from_dense(dense), lanes)
    else:
        t = random_tensor(shape=(10, 7, 6), density=0.25, seed=seed)
        ciss = CISSTensor.from_sparse(t, lanes)
    costs = kernel_costs(kernel, CFG, fiber_elems=8, f1_tile=4)
    stats = analyze_lanes(ciss.kinds, ciss.a_idx, ciss.k_idx, costs, CFG.spm_banks)
    assert np.array_equal(stats.lane_cycles, lane_cycle_totals(ciss, costs))
