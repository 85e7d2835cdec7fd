"""Top-level Tensaurus simulator (Fig. 5).

:class:`Tensaurus` executes any of the eight supported kernels against the
configured design point and returns a :class:`~repro.sim.report.SimReport`
with cycles, operation counts and per-stream byte traffic.

Execution model
---------------
The operands are tiled per :mod:`repro.sim.tiling`. Each sparse tile is
priced on its CISS encoding (so load balance, headers and padding are the
actual format's): per-lane cycles, SPM bank conflicts and op counts. Per
tile, compute and the three memory streams (TLU tensor stream, MLU matrix
tiles, MSU output) overlap through the double buffers, so a tile costs
``max(compute, memory)`` plus a fixed swap/fill overhead; tiles execute
back to back. Rank ranges wider than one PE-array pass multiply the whole
schedule (the tensor is re-streamed per pass, Section 5.2.4).

Every kernel, sparse or dense, on a tensor or a matrix, runs through one
launch routine, :meth:`Tensaurus._launch`: the fault preamble, one of two
tile pricers, the buffered-MSU writeback, pass scaling and the report. Both
pricers fold their per-tile costs through one routine,
:meth:`Tensaurus._combine_tile_costs`, so tiles and tile-level faults are
priced alike.

The sparse pricer analyzes the whole tile-sorted record stream at once via
:func:`repro.sim.batch.analyze_tile_stream` segment reductions, and
memoizes tile partitions and lane statistics in the per-instance
:class:`~repro.sim.batch.EncodingCache`. Its reports equal golden digests
computed from the per-tile reference engine it replaced, which encoded
every tile with :class:`~repro.formats.ciss.CISSTensor` and ran
:func:`repro.sim.lanes.analyze_lanes` on it
(``tests/test_perfmodel_agreement.py``).

The dense pricer uses the same cost model in closed form: a dense tile's
record stream is perfectly uniform, so its lane statistics are exact
without materializing a CISS encoding (the TLU builds entries on the fly
and the crossbar broadcasts, Section 5.2.4), and the tensor stream carries
raw values with no index overhead. A dense matrix is a dense tensor with
one k block that loads no fiber0 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.fibers import FiberPlan, fiber_plan
from repro.kernels.matmul import gemm as gemm_ref
from repro.kernels.matmul import gemv as gemv_ref
from repro.kernels.matmul import spmm as spmm_ref
from repro.kernels.matmul import spmv as spmv_ref
from repro.kernels.mttkrp import mttkrp_dense_factored, mttkrp_sparse_factored
from repro.kernels.spec import KernelSpec, kernel_spec
from repro.kernels.ttmc import ttmc_dense_factored, ttmc_sparse_factored
from repro.sim.batch import (
    BatchTileStats,
    EncodingCache,
    TilePartition,
    analyze_tile_stream,
    fingerprint_arrays,
)
from repro.sim.config import TensaurusConfig
from repro.sim.costs import KernelCosts, kernel_costs
from repro.sim.faults import FaultPlan, FaultState, RunFaultContext
from repro.sim.lanes import lane_cycle_model, op_count_model
from repro.sim.report import SimReport
from repro.sim.tiling import TilingPlan, make_plan
from repro.tensor import SparseTensor
from repro.util.arrays import count_distinct
from repro.util.errors import KernelError, ShapeError
from repro.util.validation import check_shape_match

MatrixLike = Union[CSRMatrix, COOMatrix, np.ndarray]


@dataclass
class _TileTotals:
    """Accumulated per-pass tile costs of one kernel execution."""

    cycles: int
    ops: int
    tensor_bytes: int
    matrix_bytes: int
    output_bytes: int
    entries: int
    fibers: int
    headers: int
    conflicts: int
    #: Per-pass cycle decomposition (stream/compute/stall/drain[/recovery])
    #: summing exactly to ``cycles``; computed only while observation is
    #: active, None otherwise. Never feeds back into the report.
    phases: Optional[Dict[str, int]] = None


#: What a tile pricer returns: the plan, the per-pass tile totals, the
#: output rows of each buffered-MSU writeback and, for a sparse tensor,
#: the fiber plan its functional kernel walks.
_Priced = Tuple[TilingPlan, _TileTotals, List[int], Optional[FiberPlan]]


def _extents(extent: int, tile: int) -> np.ndarray:
    """Extent of each ``tile``-wide block along an axis, the edge block
    clipped."""
    return np.minimum(tile, extent - np.arange(0, extent, tile))


def _check_operands(
    spec: KernelSpec,
    shape: Tuple[int, ...],
    dense: List[np.ndarray],
    mode: int,
    is_dense: bool,
) -> None:
    """The kernels' shape rule for B, C and x, and no empty j or k axis on
    a dense tensor (its tile grid would have no tiles to price)."""
    if spec.order == 3:
        rest = [m for m in range(3) if m != mode]
        for m, mat in zip(rest, dense):
            check_shape_match(
                f"tensor mode {m}", shape[m], "factor rows", mat.shape[0]
            )
        if is_dense and 0 in (shape[m] for m in rest):
            raise ShapeError(
                f"dense tensor of shape {shape} has an empty j or k axis"
            )
    else:
        other = "B rows" if spec.name == "spmm" else "x length"
        check_shape_match("A columns", shape[1], other, dense[0].shape[0])


class Tensaurus:
    """The simulated accelerator.

    ``fault_plan`` (or ``config.fault_plan``) arms the deterministic fault
    layer of :mod:`repro.sim.faults`; ``fault_epoch`` seeds the retry epoch
    so host-side recovery can re-draw faults on a retried launch. With no
    plan (or an all-zero plan) every code path is the exact fault-free
    arithmetic and reports are bit-identical to earlier versions.
    """

    def __init__(
        self,
        config: Optional[TensaurusConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_epoch: int = 0,
    ) -> None:
        self.config = config or TensaurusConfig()
        self._cache = EncodingCache(self.config.encoding_cache_entries)
        plan = fault_plan if fault_plan is not None else self.config.fault_plan
        self._faults = FaultState(plan, fault_epoch)

    # ------------------------------------------------------------------
    # Fault-injection state
    # ------------------------------------------------------------------
    @property
    def fault_state(self) -> FaultState:
        """Run counter + retry epoch of the fault-injection layer."""
        return self._faults

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        return self._faults.plan

    def advance_fault_epoch(self) -> None:
        """Host-side recovery hook: retried launches re-draw their faults
        from a fresh stream instead of deterministically re-failing."""
        self._faults.advance_epoch()

    # ------------------------------------------------------------------
    # Encoding-cache access
    # ------------------------------------------------------------------
    @property
    def cache(self) -> EncodingCache:
        """The per-instance tile-partition / lane-statistics memo."""
        return self._cache

    def cache_info(self) -> Dict[str, int]:
        """Current hit/miss/occupancy counters (see :meth:`reset_cache_stats`
        for scoping them to one run)."""
        return self._cache.info()

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss counters without evicting cached entries.

        ``cache_info`` counters otherwise accumulate across unrelated
        runs on a shared accelerator, which makes per-run cache metrics
        wrong; call this before the run you want to attribute.
        """
        self._cache.reset_stats()

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Public kernel entry points
    # ------------------------------------------------------------------
    def run_mttkrp(
        self,
        tensor: Union[SparseTensor, np.ndarray],
        mat_b: np.ndarray,
        mat_c: np.ndarray,
        mode: int = 0,
        msu_mode: str = "auto",
        compute_output: bool = True,
    ) -> SimReport:
        """MTTKRP along ``mode``; sparse or dense by operand type.

        ``mat_b`` / ``mat_c`` are the factors of the first / second
        remaining mode in increasing mode order (as in
        :mod:`repro.kernels.mttkrp`).
        """
        mat_b = np.asarray(mat_b, dtype=np.float64)
        mat_c = np.asarray(mat_c, dtype=np.float64)
        if not isinstance(tensor, SparseTensor):
            tensor = np.asarray(tensor, dtype=np.float64)
        return self._launch(
            "mttkrp", tensor, [mat_b, mat_c], mode, mat_b.shape[1], 0,
            msu_mode, compute_output,
        )

    def run_ttmc(
        self,
        tensor: Union[SparseTensor, np.ndarray],
        mat_b: np.ndarray,
        mat_c: np.ndarray,
        mode: int = 0,
        msu_mode: str = "auto",
        compute_output: bool = True,
    ) -> SimReport:
        """TTMc along ``mode``; output is the dense (I x F1 x F2) tensor."""
        mat_b = np.asarray(mat_b, dtype=np.float64)
        mat_c = np.asarray(mat_c, dtype=np.float64)
        if not isinstance(tensor, SparseTensor):
            tensor = np.asarray(tensor, dtype=np.float64)
        return self._launch(
            "ttmc", tensor, [mat_b, mat_c], mode, mat_b.shape[1],
            mat_c.shape[1], msu_mode, compute_output,
        )

    def run_spmm(
        self,
        a: MatrixLike,
        mat_b: np.ndarray,
        msu_mode: str = "auto",
        compute_output: bool = True,
    ) -> SimReport:
        """Sparse (CSR/COO operand) or dense (ndarray operand) matrix-matrix."""
        mat_b = np.asarray(mat_b, dtype=np.float64)
        if mat_b.ndim != 2:
            raise ShapeError(f"SpMM needs a 2-d B, got {mat_b.ndim}-d")
        if isinstance(a, CSRMatrix):
            a = a.to_coo()
        return self._launch(
            "spmm", a, [mat_b], 0, mat_b.shape[1], 0, msu_mode, compute_output
        )

    def run_spmv(
        self,
        a: MatrixLike,
        vec: np.ndarray,
        msu_mode: str = "auto",
        compute_output: bool = True,
    ) -> SimReport:
        """Sparse or dense matrix-vector."""
        vec = np.asarray(vec, dtype=np.float64)
        if isinstance(a, CSRMatrix):
            a = a.to_coo()
        return self._launch("spmv", a, [vec], 0, 1, 0, msu_mode, compute_output)

    def _launch(
        self,
        family: str,
        operand: Union[SparseTensor, COOMatrix, np.ndarray],
        dense: List[np.ndarray],
        mode: int,
        rank: int,
        rank2: int,
        msu_mode: str,
        compute_output: bool,
    ) -> SimReport:
        """One launch of ``family`` on a sparse or dense ``operand``.

        ``dense`` holds the dense operands (B and C, B, or x); ``rank`` is
        F, F1 or the SpMM column count and ``rank2`` the TTMc F2. The
        fault preamble (abort draw, then the surviving lanes) runs before
        the sparse pricer fingerprints the operand, so an aborted launch
        leaves the encoding cache untouched. The operand shapes are
        checked before it, so a malformed launch raises ``ShapeError``
        with or without output and takes no fault-plan run slot.
        """
        spec = kernel_spec(family)
        is_dense = isinstance(operand, np.ndarray)
        kernel = spec.dense if is_dense else spec.sparse
        if spec.order == 3 and operand.ndim != 3:
            raise KernelError("the accelerator's tensor kernels are 3-d")
        _check_operands(spec, operand.shape, dense, mode, is_dense)
        cfg = self.config
        ctx = self._faults.begin_run(kernel)
        if ctx is not None:
            ctx.check_launch_abort()
            lanes = ctx.active_lanes(cfg.rows)
        else:
            lanes = cfg.rows
        if is_dense:
            operand = np.asarray(operand, dtype=np.float64)
            dims = operand.shape
            if spec.order == 3:
                rest = [m for m in range(3) if m != mode]
                dims = tuple(dims[m] for m in [mode] + rest)
            plan, totals, write_rows, fibers = self._price_dense(
                kernel, dims, rank, rank2, msu_mode, lanes, ctx
            )
        else:
            plan, totals, write_rows, fibers = self._price_sparse(
                kernel, operand, mode, rank, rank2, msu_mode, lanes, ctx
            )

        # The buffered MSU writes its rows back after the tiles, one drain
        # per entry of ``write_rows``; each drain rounds up to whole HBM
        # cycles.
        output_bytes = totals.output_bytes
        write_cycles = 0
        if plan.msu_mode == "buffered":
            row_bytes = plan.out_elems * cfg.data_width
            for rows in write_rows:
                output_bytes += rows * row_bytes
                write_cycles += math.ceil(rows * row_bytes / self._bpc)
        cycles = totals.cycles + write_cycles

        output = None
        if compute_output:
            output = self._functional_output(
                spec, is_dense, operand, dense, mode, fibers
            )
        detail = {"msu_mode": plan.msu_mode, "passes": plan.passes}
        if not is_dense:
            detail["entries"] = totals.entries
            if spec.order == 3:
                detail["fibers"] = totals.fibers
            detail["headers"] = totals.headers
            detail["conflict_stalls"] = totals.conflicts
            detail["nnz"] = operand.nnz
        report = SimReport(
            kernel=kernel,
            cycles=int(cycles * plan.passes),
            ops=int(totals.ops * plan.passes),
            tensor_bytes=int(totals.tensor_bytes * plan.passes),
            matrix_bytes=int(totals.matrix_bytes * plan.passes),
            output_bytes=int(output_bytes * plan.passes),
            clock_ghz=cfg.clock_ghz,
            output=output,
            detail=detail,
            faults=ctx.finish(plan.passes) if ctx is not None else {},
            fault_events=list(ctx.events) if ctx is not None else [],
        )
        self._finish_launch_obs(report, plan.passes, totals.phases, write_cycles)
        return report

    @staticmethod
    def _functional_output(
        spec: KernelSpec,
        is_dense: bool,
        operand: Union[SparseTensor, COOMatrix, np.ndarray],
        dense: List[np.ndarray],
        mode: int,
        fibers: Optional[FiberPlan],
    ) -> np.ndarray:
        """The launch's numeric result from the family's reference kernel.

        The kernels are module globals named at call time, so a wrapper
        installed on this module (the e2e layer shims) sees every call.
        """
        mttkrp = spec.name == "mttkrp"
        if spec.order == 3 and is_dense:
            kernel = mttkrp_dense_factored if mttkrp else ttmc_dense_factored
            return kernel(operand, dense, mode)
        if spec.order == 3:
            kernel = mttkrp_sparse_factored if mttkrp else ttmc_sparse_factored
            return kernel(operand, dense, mode, plan=fibers)
        spmm = spec.name == "spmm"
        if is_dense:
            return (gemm_ref if spmm else gemv_ref)(operand, dense[0])
        csr = CSRMatrix.from_coo(operand)
        return (spmm_ref if spmm else spmv_ref)(csr, dense[0])

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    @property
    def _bpc(self) -> float:
        """Off-chip bytes deliverable per accelerator cycle."""
        return self.config.hbm_bytes_per_cycle

    @property
    def _tile_overhead(self) -> int:
        """Buffer-swap plus systolic fill cycles charged per tile."""
        return self.config.rows + self.config.cols + 16

    def _resolve_msu_mode(
        self,
        kernel: str,
        dims: tuple,
        msu_mode: str,
        rank: int,
        rank2: int,
        estimate,
    ) -> str:
        """Pick buffered vs direct reduction by estimated traffic."""
        if msu_mode != "auto":
            return msu_mode
        best_mode, best_bytes = None, None
        for mode in ("buffered", "direct"):
            plan = make_plan(kernel, self.config, dims, mode, rank, rank2)
            total = estimate(plan)
            if best_bytes is None or total < best_bytes:
                best_mode, best_bytes = mode, total
        return best_mode

    # ------------------------------------------------------------------
    # The two tile pricers
    # ------------------------------------------------------------------
    def _price_sparse(
        self,
        kernel: str,
        operand: Union[SparseTensor, COOMatrix],
        mode: int,
        rank: int,
        rank2: int,
        msu_mode: str,
        lanes: int,
        ctx: Optional[RunFaultContext],
    ) -> _Priced:
        """Per-pass tile costs of a sparse tensor or matrix.

        Each nonempty tile is priced on its CISS encoding. It loads the
        resident extents of its j and k blocks (edge tiles clip; a matrix
        has no k blocks). The buffered MSU writes every nonempty output
        row back in one drain.
        """
        cfg = self.config
        tensor = isinstance(operand, SparseTensor)
        if tensor:
            arrays = (operand.coords, operand.values)
        else:
            arrays = (operand.rows, operand.cols, operand.vals)
        fp = (
            self._cache.operand_fingerprint(arrays, fingerprint_arrays)
            if self._cache.enabled
            else None
        )
        fibers: Optional[FiberPlan] = None
        if tensor:
            fibers = self._fiber_plan(operand, mode, fp)
            dims, nnz, rows = fibers.shape, fibers.nnz, fibers.nonempty_slices
            coords = fibers.coords.T
        else:
            dims, nnz = operand.shape, operand.nnz
            rows = count_distinct(operand.rows)
            coords = (operand.rows, operand.cols)
        index_fields = len(dims) - 1
        get_partition = self._partition_getter(fp, mode, dims, coords)

        def estimate(plan: TilingPlan) -> float:
            return self._estimate_traffic(
                plan, get_partition(plan), nnz, rows, lanes, index_fields
            )

        resolved = self._resolve_msu_mode(kernel, dims, msu_mode, rank, rank2, estimate)
        plan = make_plan(kernel, cfg, dims, resolved, rank, rank2)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems, plan.f1_tile)
        entry_bytes = cfg.ciss_entry_bytes(index_fields, lanes=lanes)
        part = get_partition(plan)

        with obs.tracer().span(
            f"{kernel}.tiles", args={"tiles": part.num_tiles, "nnz": nnz}
        ):
            stats = self._tile_stats(part, costs, fp, mode, lanes)
            jb = (part.uniq // part.nk) % part.nj
            jx = np.minimum(plan.j_tile, dims[1] - jb * plan.j_tile)
            kx = 0
            if plan.k_tile is not None:
                kb = part.uniq % part.nk
                kx = np.minimum(plan.k_tile, dims[2] - kb * plan.k_tile)
            totals = self._combine_tile_costs(
                plan, stats, stats.num_entries * entry_bytes,
                plan.dense_elems(jx, kx) * cfg.data_width, ctx,
            )
        return plan, totals, [rows], fibers

    def _price_dense(
        self,
        kernel: str,
        dims: tuple,
        rank: int,
        rank2: int,
        msu_mode: str,
        lanes: int,
        ctx: Optional[RunFaultContext],
    ) -> _Priced:
        """Per-pass tile costs of a dense tensor or matrix, in closed form.

        A dense tile's record stream is perfectly uniform: the TLU builds
        its CISS entries on the fly and deals equal slices over the
        ``lanes`` surviving lanes, so the slowest lane carries ``ceil``
        shares of the records, headers and fibers, and dense mode
        broadcasts SPM reads, so no bank conflicts. The tensor stream
        carries raw values with no index overhead. A matrix is a tensor
        with one k block that loads no fiber0 rows. Tiles fold in i, j, k
        order, which per-tile fault draws are keyed by, and the buffered
        MSU writes each i block back on its own.
        """
        cfg = self.config
        dw = cfg.data_width
        resolved = "buffered" if msu_mode == "auto" else msu_mode
        plan = make_plan(kernel, cfg, dims, resolved, rank, rank2)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems, plan.f1_tile)
        i_rows = _extents(dims[0], plan.i_tile)
        if plan.k_tile is None:
            k_blocks = np.ones(1, dtype=np.int64)
        else:
            k_blocks = _extents(dims[2], plan.k_tile)
        # C order over the (i, j, k) block grid: k fastest.
        ix, jx, kx = (
            grid.ravel()
            for grid in np.meshgrid(
                i_rows, _extents(dims[1], plan.j_tile), k_blocks, indexing="ij"
            )
        )
        records = ix * jx * kx
        fibers = ix * jx
        lane_records = -(-records // lanes)
        lane_headers = -(-ix // lanes)
        compute = lane_cycle_model(
            costs, lane_records, lane_headers, -(-fibers // lanes), lane_headers
        )
        # Only the slowest lane is modeled: its cycles and stream depth.
        stats = BatchTileStats(
            lane_cycles=compute[:, None],
            compute_cycles=compute,
            conflict_stalls=np.zeros_like(compute),
            num_nnz=records,
            num_headers=ix,
            num_fibers=fibers if costs.uses_fibers else np.zeros_like(fibers),
            num_entries=lane_records + lane_headers,
            ops=op_count_model(costs, records, fibers),
        )
        k_rows = 0 if plan.k_tile is None else kx
        totals = self._combine_tile_costs(
            plan, stats, records * dw, plan.dense_elems(jx, k_rows) * dw, ctx
        )
        return plan, totals, i_rows.tolist(), None

    # ------------------------------------------------------------------
    # Sparse-pricer mechanics: partitions, fingerprints, cached stats
    # ------------------------------------------------------------------
    def _fiber_plan(
        self, tensor: SparseTensor, mode: int, fp: Optional[bytes]
    ) -> FiberPlan:
        """The operand's fiber layout along ``mode``, cached per (operand,
        mode): the timing path tiles its coordinates and the functional
        kernel walks its fibers, so CP-ALS builds each mode's plan once
        across all sweeps. ``fp`` is this launch's content fingerprint,
        checked against the operand's bytes on every launch, so a mutated
        operand misses. It covers the nonzeros only; the plan also carries
        the declared shape, so the shape is part of the key."""
        if fp is None:
            return fiber_plan(tensor, mode)
        return self._cache.get(
            ("fiber-plan", fp, tensor.shape, mode),
            lambda: fiber_plan(tensor, mode),
        )

    def _partition_getter(
        self,
        fp: Optional[bytes],
        mode: int,
        dims: tuple,
        coords: Sequence[np.ndarray],
    ) -> Callable[[TilingPlan], TilePartition]:
        """A memoized plan->partition lookup shared by the MSU-mode
        estimates and the subsequent run, so tile ids and the tile-major
        sort are computed once per tile geometry per operand."""
        local: Dict[tuple, TilePartition] = {}

        def get(plan: TilingPlan) -> TilePartition:
            geo = (plan.i_tile, plan.j_tile, plan.k_tile)
            part = local.get(geo)
            if part is None:
                if fp is None:
                    part = TilePartition(coords, dims, *geo)
                else:
                    part = self._cache.get(
                        ("tile-partition", fp, mode, dims, geo),
                        lambda: TilePartition(coords, dims, *geo),
                    )
                local[geo] = part
            return part

        return get

    def _tile_stats(
        self,
        part: TilePartition,
        costs: KernelCosts,
        fp: Optional[bytes],
        mode: int,
        lanes: int,
    ) -> BatchTileStats:
        """Segmented per-tile lane statistics, memoized per cost table.

        ``lanes`` is the surviving PE-lane count (``config.rows`` unless the
        fault layer dropped lanes); the CISS deal redistributes records over
        however many lanes remain, so it is part of the cache key.
        """
        cfg = self.config

        def build():
            slice_col, a_col, k_col = part.stream_columns()
            return analyze_tile_stream(
                slice_col, a_col, k_col, part.bounds, costs,
                lanes, cfg.spm_banks,
            )

        if fp is None:
            return build()
        key = (
            "tile-stats", fp, mode, part.dims,
            (part.i_tile, part.j_tile, part.k_tile),
            lanes, cfg.spm_banks, costs,
        )
        return self._cache.get(key, build)

    def _estimate_traffic(
        self,
        plan: TilingPlan,
        part: TilePartition,
        nnz: int,
        nonempty_rows: int,
        lanes: int,
        index_fields: int,
    ) -> float:
        """Cheap traffic estimate for MSU-mode selection (no encoding)."""
        cfg = self.config
        dw = cfg.data_width
        groups = part.num_tiles
        # Matrix traffic: each nonempty group loads its j (and k) tiles.
        matrix = groups * plan.dense_elems(plan.j_tile, plan.k_tile or 0) * dw
        entry_bytes = cfg.ciss_entry_bytes(index_fields, lanes=lanes)
        tensor = (nnz / lanes + groups) * entry_bytes
        if plan.msu_mode == "direct":
            output = part.slice_visits * plan.out_elems * dw * 2
        else:
            output = nonempty_rows * plan.out_elems * dw
        return float((matrix + tensor + output) * plan.passes)

    # ------------------------------------------------------------------
    # The tile fold
    # ------------------------------------------------------------------
    def _combine_tile_costs(
        self,
        plan: TilingPlan,
        stats: BatchTileStats,
        t_bytes: np.ndarray,
        m_bytes: np.ndarray,
        ctx: Optional[RunFaultContext] = None,
    ) -> _TileTotals:
        """Fold per-tile lane statistics and stream bytes into the schedule
        totals.

        The only tile fold: both pricers go through it, so sparse and dense
        tiles — and, when ``ctx`` is armed, tile-level faults — are priced
        identically. In direct mode each tile reads and writes the output
        rows it visits, one per slice header. With no fault context this
        is the exact pre-fault arithmetic.
        """
        if plan.msu_mode == "direct":
            o_bytes = stats.num_headers * plan.out_elems * self.config.data_width * 2
        else:
            o_bytes = np.zeros_like(t_bytes)
        compute_cycles = stats.compute_cycles
        num_tiles = int(np.asarray(t_bytes).shape[0])
        extra_t = extra_m = 0
        mem_cycles = np.ceil(
            (t_bytes + m_bytes + o_bytes) / self._bpc
        ).astype(np.int64)
        if ctx is None:
            cycles = int(np.maximum(compute_cycles, mem_cycles).sum())
            cycles += num_tiles * self._tile_overhead
        else:
            outcome = ctx.apply_tile_faults(
                compute_cycles, t_bytes, m_bytes, o_bytes,
                self._bpc, self._tile_overhead,
            )
            cycles = outcome.cycles
            extra_t = outcome.extra_tensor_bytes
            extra_m = outcome.extra_matrix_bytes
        phases: Optional[Dict[str, int]] = None
        # Only the span tracer and the registry read phases; a chaos
        # probe or a request tracer alone leaves the report plain.
        if obs.tracer().enabled or obs.metrics().enabled:
            phases = self._tile_phases(
                compute_cycles, mem_cycles, stats.conflict_stalls, num_tiles
            )
            if ctx is not None:
                # Anything the fault overlay added on top of the clean
                # schedule (checksum replays, HBM stall padding, lane
                # re-deals) is recovery time.
                phases["recovery"] = int(cycles - sum(phases.values()))
        return _TileTotals(
            cycles=cycles,
            ops=int(stats.ops.sum()),
            tensor_bytes=int(t_bytes.sum()) + extra_t,
            matrix_bytes=int(m_bytes.sum()) + extra_m,
            output_bytes=int(o_bytes.sum()),
            entries=int(stats.num_entries.sum()),
            fibers=int(stats.num_fibers.sum()),
            headers=int(stats.num_headers.sum()),
            conflicts=int(stats.conflict_stalls.sum()),
            phases=phases,
        )

    # ------------------------------------------------------------------
    # Observability (off by default; never alters the report)
    # ------------------------------------------------------------------
    def _tile_phases(
        self,
        compute_cycles: np.ndarray,
        mem_cycles: np.ndarray,
        conflict_stalls: np.ndarray,
        num_tiles: int,
    ) -> Dict[str, int]:
        """Attribute the clean tile schedule to stream/compute/stall/drain.

        A tile costs ``max(compute, mem)``: memory-bound tiles spend their
        cycles streaming operands, compute-bound tiles spend theirs in the
        PE array — minus the SPM bank-conflict stalls already folded into
        their compute time, which are broken out as ``stall``. The fixed
        per-tile swap/fill overhead plus the buffered-MSU writeback (added
        by the caller) is ``drain``. By construction the phases sum to the
        schedule's cycles exactly.
        """
        comp = np.asarray(compute_cycles, dtype=np.int64)
        mem = np.asarray(mem_cycles, dtype=np.int64)
        comp_bound = comp >= mem
        stall = int(np.asarray(conflict_stalls, dtype=np.int64)[comp_bound].sum())
        return {
            "stream": int(mem[~comp_bound].sum()),
            "compute": int(comp[comp_bound].sum()) - stall,
            "stall": stall,
            "drain": num_tiles * self._tile_overhead,
        }

    def _finish_launch_obs(
        self,
        report: SimReport,
        passes: int,
        phases: Optional[Dict[str, int]],
        write_cycles: int = 0,
    ) -> None:
        """Report one finished launch to the active tracer and registry.

        ``phases`` is the per-pass decomposition from the tile fold
        (None unless observed); ``write_cycles`` is the buffered-MSU
        writeback the caller added on top. Both are folded and scaled by
        ``passes`` into ``report.phase_cycles``, so the emitted phase
        totals sum exactly to ``report.cycles``. No other field changes.
        """
        if phases is not None:
            merged = dict(phases)
            merged["drain"] = merged.get("drain", 0) + write_cycles
            report.phase_cycles = {
                k: int(v) * int(passes) for k, v in merged.items()
            }
        self._emit_launch_obs(report)

    @staticmethod
    def _emit_launch_obs(report: SimReport) -> None:
        """The launch span and ``sim.*`` counters of one launch, live or
        replayed (see :meth:`replay`)."""
        tr = obs.tracer()
        reg = obs.metrics()
        if not (tr.enabled or reg.enabled):
            return
        scaled = report.phase_cycles or {}
        kernel = report.kernel
        tr.add_launch(
            kernel, report.cycles, scaled,
            args={
                "msu_mode": report.detail.get("msu_mode"),
                "passes": report.detail.get("passes"),
                "ops": report.ops,
                "nnz": report.detail.get("nnz"),
            },
        )
        if not reg.enabled:
            return
        reg.counter(
            "sim.launches", "kernel launches", ("kernel",)
        ).labels(kernel=kernel).inc()
        reg.counter(
            "sim.cycles", "total launch cycles", ("kernel",)
        ).labels(kernel=kernel).inc(report.cycles)
        reg.counter(
            "sim.ops", "MAC operations", ("kernel",)
        ).labels(kernel=kernel).inc(report.ops)
        phase_counter = reg.counter(
            "sim.phase_cycles", "launch cycles by phase", ("kernel", "phase")
        )
        for phase, width in scaled.items():
            if width:
                phase_counter.labels(kernel=kernel, phase=phase).inc(width)
        byte_counter = reg.counter(
            "sim.bytes", "HBM bytes by stream", ("kernel", "stream")
        )
        byte_counter.labels(kernel=kernel, stream="tensor").inc(report.tensor_bytes)
        byte_counter.labels(kernel=kernel, stream="matrix").inc(report.matrix_bytes)
        byte_counter.labels(kernel=kernel, stream="output").inc(report.output_bytes)
        conflicts = report.detail.get("conflict_stalls", 0)
        if conflicts:
            reg.counter(
                "sim.spm_conflict_stalls",
                "per-pass SPM bank-conflict stall cycles",
            ).inc(conflicts)
        if report.faults:
            recovery = report.faults.get("fault_overhead_cycles", 0)
            if recovery:
                reg.counter(
                    "sim.fault.recovery_cycles",
                    "cycles added by fault detection and recovery",
                ).inc(recovery)
            event_counter = reg.counter(
                "sim.fault.events", "fault events by kind", ("kind",)
            )
            for event in report.fault_events:
                event_counter.labels(kind=event.kind).inc()

    # ------------------------------------------------------------------
    # Replay of an earlier identical launch
    # ------------------------------------------------------------------
    def replay(self, report: SimReport) -> Optional[SimReport]:
        """Answer one launch with ``report`` instead of simulating it.

        ``report`` must be a :attr:`SimReport.fault_free` report of the
        same kernel and operands from an accelerator with this config.
        The launch draws its abort and lane-dropout faults from the
        stream a live run would use (:meth:`FaultState.replay_run`). A
        clean launch consumes its run slot and returns a copy
        bit-identical to the live report, ``faults`` and
        ``fault_events`` included, reported to the active tracer and
        metrics registry as a live launch is. ``None`` means the caller
        must run the launch live, with nothing consumed: the launch
        would fault, the plan draws per-tile faults, or observation
        needs the phase breakdown of a report from an unobserved run.
        """
        if report.phase_cycles is None and (
            obs.tracer().enabled or obs.metrics().enabled
        ):
            return None
        faults = self._faults.replay_run(report.kernel, self.config.rows)
        if faults is None:
            return None
        out = report.clone(faults)
        self._emit_launch_obs(out)
        return out


def launch(
    accelerator,
    kernel: str,
    operand,
    dense: Sequence[np.ndarray],
    mode: int = 0,
    **kwargs,
) -> SimReport:
    """Run ``kernel`` (any name of its family) on ``accelerator``.

    The launch goes through the accelerator's own ``run_<family>``
    method, so a wrapper with the same methods
    (:class:`repro.artifacts.MemoizedTensaurus`) sees it. ``dense`` holds
    the dense operands in that method's order: B and C for the tensor
    kernels, B for SpMM, x for SpMV. ``mode`` reaches the tensor kernels
    only; ``kwargs`` (``msu_mode``, ``compute_output``) reach every one.
    """
    spec = kernel_spec(kernel)
    if spec.order == 3:
        kwargs["mode"] = mode
    return getattr(accelerator, f"run_{spec.name}")(operand, *dense, **kwargs)
