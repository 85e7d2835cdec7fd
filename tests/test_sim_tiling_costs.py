"""Direct tests for the tiling planner and the kernel cost tables."""

import pytest

from repro.kernels.spec import KERNELS
from repro.sim.config import TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.tiling import (
    make_plan,
    plan_mttkrp,
    plan_spmm,
    plan_spmv,
    plan_ttmc,
    tile_count,
)
from repro.util.errors import ConfigError, KernelError

CFG = TensaurusConfig()
#: The eight report names (Table 1) the cost tables take.
REPORT_NAMES = [name for spec in KERNELS for name in (spec.sparse, spec.dense)]


class TestTileCount:
    def test_exact_and_ragged(self):
        assert tile_count(1024, 512) == 2
        assert tile_count(1025, 512) == 3
        assert tile_count(10, 512) == 1

    def test_invalid(self):
        with pytest.raises(ConfigError):
            tile_count(10, 0)


class TestMTTKRPPlan:
    def test_design_point_tiles(self):
        plan = plan_mttkrp(CFG, (10_000, 5000, 4000), rank=32)
        # SPM holds B and C tiles: 512 rows each at VLEN*4B per row-chunk.
        assert plan.j_tile == 512
        assert plan.k_tile == 512
        assert plan.fiber_elems == 32
        assert plan.passes == 1
        assert plan.cols_active == 8
        # MSU side 128 KB at 32 floats per row.
        assert plan.i_tile == 1024

    def test_small_dims_clamp(self):
        plan = plan_mttkrp(CFG, (10, 20, 30), rank=8)
        assert plan.i_tile == 10
        assert plan.j_tile == 20
        assert plan.k_tile == 30
        assert plan.cols_active == 2  # ceil(8 / vlen)

    def test_wide_rank_multiplies_passes(self):
        assert plan_mttkrp(CFG, (100, 100, 100), rank=100).passes == 4

    def test_direct_mode_whole_output(self):
        plan = plan_mttkrp(CFG, (10_000, 100, 100), rank=32, msu_mode="direct")
        assert plan.i_tile == 10_000

    def test_bad_msu_mode(self):
        with pytest.raises(ConfigError):
            plan_mttkrp(CFG, (10, 10, 10), rank=4, msu_mode="cached")


class TestTTMcPlan:
    def test_osr_bounds_f1(self):
        plan = plan_ttmc(CFG, (100, 100, 100), rank1=32, rank2=32)
        assert plan.f1_tile == CFG.vlen  # OLEN == VLEN
        assert plan.fiber_elems == 32
        assert plan.passes == 8  # ceil(32/4) * ceil(32/32)

    def test_output_tile_shrinks_with_ranks(self):
        narrow = plan_ttmc(CFG, (100_000, 100, 100), 4, 8)
        wide = plan_ttmc(CFG, (100_000, 100, 100), 4, 32)
        assert narrow.i_tile > wide.i_tile  # more elems/slice -> fewer rows


class TestMatrixPlans:
    def test_spmm_single_operand_spm(self):
        plan = plan_spmm(CFG, (5000, 5000), ncols=32)
        assert plan.j_tile == 1024  # full SPM side for B only
        assert plan.k_tile is None

    def test_spmv_vector_in_first_column(self):
        plan = plan_spmv(CFG, (100_000, 100_000))
        # 32 KB side / 2 / 4B = 4096 vector elements resident.
        assert plan.j_tile == 4096
        assert plan.fiber_elems == 1
        assert plan.cols_active == 1


class TestMakePlan:
    @pytest.mark.parametrize(
        "kernel,base",
        [("spmttkrp", "mttkrp"), ("dmttkrp", "mttkrp"), ("spttmc", "ttmc"),
         ("spmm", "spmm"), ("gemv", "spmv")],
    )
    def test_dispatch(self, kernel, base):
        plan = make_plan(kernel, CFG, (100, 100, 100)[: 2 if base in ("spmm", "spmv") else 3],
                         rank=8, rank2=8)
        assert plan.kernel == base

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            make_plan("spgemm", CFG, (10, 10), rank=4)


class TestKernelCosts:
    @pytest.mark.parametrize("kernel", REPORT_NAMES)
    def test_all_kernels_buildable(self, kernel):
        costs = kernel_costs(kernel, CFG, fiber_elems=16, f1_tile=4)
        assert costs.nnz_cycles == CFG.cycles_per_record
        assert costs.ops_per_nnz > 0

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            kernel_costs("spgemm", CFG, 16)

    def test_ttmc_needs_f1(self):
        with pytest.raises(KernelError):
            kernel_costs("spttmc", CFG, 16, f1_tile=0)

    def test_fold_cost_structure(self):
        mttkrp = kernel_costs("spmttkrp", CFG, 32)
        ttmc = kernel_costs("spttmc", CFG, 32, f1_tile=4)
        spmm = kernel_costs("spmm", CFG, 32)
        # MTTKRP folds in constant time; TTMc streams F1 elements.
        assert ttmc.fold_cycles == 1 + 4
        assert mttkrp.fold_cycles == CFG.cycles_per_record
        assert spmm.fold_cycles == 0 and not spmm.uses_fibers

    def test_ops_scale_with_tile(self):
        narrow = kernel_costs("spmm", CFG, 8)
        wide = kernel_costs("spmm", CFG, 32)
        assert wide.ops_per_nnz == 4 * narrow.ops_per_nnz

    def test_spmv_scalar_ops(self):
        costs = kernel_costs("spmv", CFG, 1)
        assert costs.ops_per_nnz == 2

    def test_dense_flag_and_bank_key(self):
        assert kernel_costs("dmttkrp", CFG, 8).dense
        assert not kernel_costs("spmttkrp", CFG, 8).dense
        assert kernel_costs("spmttkrp", CFG, 8).bank_key == "k"
        assert kernel_costs("spmm", CFG, 8).bank_key == "a"
