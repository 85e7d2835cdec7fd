"""Closed-form performance model of the accelerator.

:class:`FastModel` predicts cycles and traffic from aggregate structure
statistics (nonzeros, nonempty fibers/slices, occupied tiles) without
CISS-encoding every tile, using the same cost constants as the cycle
simulator. It exists for two reasons:

1. Wide parameter sweeps (e.g. the Fig. 13 density sweep at many points)
   where re-encoding every tile would dominate runtime.
2. A cross-check: ``tests/test_perfmodel_agreement.py`` asserts the fast
   model tracks the cycle simulator within a tolerance band across kernels
   and densities, which guards both models against drift.

The tile and slice-visit counts are exact: they come from the cycle
simulator's own :class:`~repro.sim.batch.TilePartition`, so both models
read one tile-id rule. The deliberate approximations (documented inline):
per-entry bank-conflict stalls use the expected maximum of a multinomial
instead of the actual index distribution; lane imbalance and tail padding
are ignored (the CISS scheduler keeps them small); and compute/memory
overlap is applied at the workload level rather than per tile.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spec import kernel_spec
from repro.sim.batch import TilePartition
from repro.sim.config import TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.report import SimReport
from repro.sim.tiling import make_plan
from repro.tensor import SparseTensor
from repro.util.arrays import count_distinct
from repro.util.errors import KernelError


def _expected_max_occupancy(balls: int, bins: int) -> float:
    """Monte-Carlo-free estimate of E[max bin load] for random banking.

    Uses the standard balls-in-bins asymptotic for the balanced case
    (``balls == bins``: about ``ln n / ln ln n``) blended with the mean
    load; exactness is unnecessary — the cycle simulator measures the true
    value and the agreement test bounds the error.
    """
    if balls <= 1 or bins <= 1:
        return float(balls)
    mean = balls / bins
    if mean >= 4:
        return mean + math.sqrt(2 * mean * math.log(bins))
    # Light-load regime: max is a small constant above the mean.
    return mean + 1.3


class FastModel:
    """Analytical timing model sharing the cycle simulator's constants."""

    def __init__(self, config: Optional[TensaurusConfig] = None) -> None:
        self.config = config or TensaurusConfig()

    # ------------------------------------------------------------------
    def mttkrp(
        self,
        tensor: SparseTensor,
        rank: int,
        mode: int = 0,
        msu_mode: str = "direct",
    ) -> SimReport:
        return self._tensor_kernel("spmttkrp", tensor, rank, 0, mode, msu_mode)

    def ttmc(
        self,
        tensor: SparseTensor,
        rank1: int,
        rank2: int,
        mode: int = 0,
        msu_mode: str = "direct",
    ) -> SimReport:
        return self._tensor_kernel("spttmc", tensor, rank1, rank2, mode, msu_mode)

    def spmm(
        self,
        a: Union[CSRMatrix, COOMatrix],
        ncols: int,
        msu_mode: str = "direct",
    ) -> SimReport:
        return self._matrix_kernel("spmm", a, ncols, msu_mode)

    def spmv(
        self, a: Union[CSRMatrix, COOMatrix], msu_mode: str = "direct"
    ) -> SimReport:
        return self._matrix_kernel("spmv", a, 1, msu_mode)

    def run(
        self,
        kernel: str,
        operand,
        rank: int = 0,
        rank2: int = 0,
        mode: int = 0,
        msu_mode: str = "direct",
    ) -> SimReport:
        """Dispatch by any name of a kernel family (the interface the
        auto-tuner's cheap tier and the serving ladder's analytic tier
        use): ``rank`` is F, F1 or the SpMM column count, ``rank2`` the
        TTMc F2 (default F1)."""
        name = kernel_spec(kernel).name
        if name == "mttkrp":
            return self.mttkrp(operand, rank, mode, msu_mode)
        if name == "ttmc":
            return self.ttmc(operand, rank, rank2 or rank, mode, msu_mode)
        if name == "spmm":
            return self.spmm(operand, rank, msu_mode)
        return self.spmv(operand, msu_mode)

    # ------------------------------------------------------------------
    def _tensor_kernel(
        self,
        kernel: str,
        tensor: SparseTensor,
        rank: int,
        rank2: int,
        mode: int,
        msu_mode: str,
    ) -> SimReport:
        if tensor.ndim != 3:
            raise KernelError("tensor kernels are 3-d")
        if msu_mode == "auto":
            return self._auto_mode(
                self._tensor_kernel, kernel, tensor, rank, rank2, mode
            )
        cfg = self.config
        rest = [m for m in range(3) if m != mode]
        perm = tensor if mode == 0 else tensor.permute_modes([mode] + rest)
        dims = perm.shape
        coords = perm.coords
        plan = make_plan(kernel, cfg, dims, msu_mode, rank, rank2)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems, plan.f1_tile)
        # Structure statistics (exact, vectorized).
        part = TilePartition(coords.T, dims, plan.i_tile, plan.j_tile, plan.k_tile)
        fiber_key = part.tid * (dims[0] * dims[1] + 1) + (
            coords[:, 0] * dims[1] + coords[:, 1]
        )
        n_fibers = count_distinct(fiber_key)
        n_slices = count_distinct(coords[:, 0])
        return self._assemble(
            kernel, plan, costs, perm.nnz,
            headers=part.slice_visits,
            fibers=n_fibers,
            groups=part.num_tiles,
            out_rows=n_slices,
            out_visits=part.slice_visits,
            index_fields=2,
        )

    def _auto_mode(self, kernel_fn, kernel, operand, *args) -> SimReport:
        """Mirror the cycle simulator's ``msu_mode="auto"`` policy: pick
        whichever reduction mode moves fewer bytes (buffered on ties)."""
        buffered = kernel_fn(kernel, operand, *args, "buffered")
        direct = kernel_fn(kernel, operand, *args, "direct")
        return buffered if buffered.total_bytes <= direct.total_bytes else direct

    def _matrix_kernel(
        self,
        kernel: str,
        a: Union[CSRMatrix, COOMatrix],
        ncols: int,
        msu_mode: str,
    ) -> SimReport:
        if msu_mode == "auto":
            return self._auto_mode(self._matrix_kernel, kernel, a, ncols)
        cfg = self.config
        coo = a.to_coo() if isinstance(a, CSRMatrix) else a
        dims = coo.shape
        plan = make_plan(kernel, cfg, dims, msu_mode, ncols)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems)
        part = TilePartition((coo.rows, coo.cols), dims, plan.i_tile, plan.j_tile)
        return self._assemble(
            kernel, plan, costs, coo.nnz,
            headers=part.slice_visits,
            fibers=0,
            groups=part.num_tiles,
            out_rows=count_distinct(coo.rows),
            out_visits=part.slice_visits,
            index_fields=1,
        )

    def _assemble(
        self,
        kernel: str,
        plan,
        costs,
        nnz: int,
        headers: int,
        fibers: int,
        groups: int,
        out_rows: int,
        out_visits: int,
        index_fields: int,
    ) -> SimReport:
        cfg = self.config
        dw = cfg.data_width
        lanes = cfg.rows
        # Compute cycles: per-lane shares plus expected bank-conflict stalls.
        lane_cycles = (
            costs.nnz_cycles * nnz
            + costs.header_cycles * headers
            + (costs.fold_cycles * fibers if costs.uses_fibers else 0)
            + costs.drain_cycles * headers
        ) / lanes
        entries = (nnz + headers) / lanes
        if not costs.dense and cfg.spm_banks >= 1 and lanes > 1:
            stall_per_entry = max(
                0.0, _expected_max_occupancy(lanes, cfg.spm_banks) - 1.0
            )
            lane_cycles += stall_per_entry * entries
        compute = lane_cycles + groups * (cfg.rows + cfg.cols + 16)
        # Traffic.
        entry_bytes = cfg.ciss_entry_bytes(index_fields)
        tensor_bytes = entries * entry_bytes
        # Each nonempty group loads its j (and, for tensors, k) tiles.
        matrix_bytes = groups * plan.dense_elems(plan.j_tile, plan.k_tile or 0) * dw
        if plan.msu_mode == "direct":
            output_bytes = out_visits * plan.out_elems * dw * 2
        else:
            output_bytes = out_rows * plan.out_elems * dw
        mem = (tensor_bytes + matrix_bytes + output_bytes) / cfg.hbm_bytes_per_cycle
        cycles = int(max(compute, mem) * plan.passes)
        ops = costs.ops_per_nnz * nnz
        if costs.uses_fibers:
            ops += costs.ops_per_fold * fibers
        ops *= plan.passes
        return SimReport(
            kernel=kernel,
            cycles=max(cycles, 1),
            ops=int(ops),
            tensor_bytes=int(tensor_bytes * plan.passes),
            matrix_bytes=int(matrix_bytes * plan.passes),
            output_bytes=int(output_bytes * plan.passes),
            clock_ghz=cfg.clock_ghz,
            output=None,
            detail={"msu_mode": plan.msu_mode, "passes": plan.passes,
                    "model": "fast",
                    # Per-pass cost components, exposed for the auto-tuner's
                    # learned cost model (featurization) and for debugging
                    # which side of the max() a prediction sat on.
                    "compute_cycles": float(compute),
                    "memory_cycles": float(mem),
                    "groups": int(groups),
                    "entries": float(entries)},
        )
