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

One engine prices the sparse tiles: it analyzes the whole tile-sorted
record stream at once via :func:`repro.sim.batch.analyze_tile_stream`
segment reductions, and memoizes tile partitions and lane statistics in
the per-instance :class:`~repro.sim.batch.EncodingCache`. Its reports
equal golden digests computed from the per-tile reference engine it
replaced, which encoded every tile with
:class:`~repro.formats.ciss.CISSTensor` and ran
:func:`repro.sim.lanes.analyze_lanes` on it
(``tests/test_perfmodel_agreement.py``).

Dense kernels use the same cost model in closed form: a dense tile's record
stream is perfectly uniform, so its lane statistics are exact without
materializing a CISS encoding (the TLU builds entries on the fly and the
crossbar broadcasts, Section 5.2.4), and the tensor stream carries raw
values with no index overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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
from repro.kernels.spec import kernel_spec
from repro.kernels.ttmc import ttmc_dense_factored, ttmc_sparse_factored
from repro.sim.batch import (
    BatchTileStats,
    EncodingCache,
    MatrixTilePartition,
    TensorTilePartition,
    analyze_tile_stream,
    fingerprint_arrays,
)
from repro.sim.config import TensaurusConfig
from repro.sim.costs import KernelCosts, kernel_costs
from repro.sim.faults import FaultPlan, FaultState, RunFaultContext
from repro.sim.report import SimReport
from repro.sim.tiling import TilingPlan, make_plan
from repro.tensor import SparseTensor
from repro.util.arrays import count_distinct
from repro.util.errors import KernelError

MatrixLike = Union[CSRMatrix, COOMatrix, np.ndarray]

TilePartition = Union[TensorTilePartition, MatrixTilePartition]


@dataclass
class _TileTotals:
    """Accumulated per-pass tile costs of one sparse kernel execution."""

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
        rank = mat_b.shape[1]
        if isinstance(tensor, SparseTensor):
            return self._run_sparse_tensor(
                "spmttkrp", tensor, mat_b, mat_c, mode, rank, 0,
                msu_mode, compute_output,
            )
        return self._run_dense_tensor(
            "dmttkrp", np.asarray(tensor, dtype=np.float64), mat_b, mat_c,
            mode, rank, 0, msu_mode, compute_output,
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
        if isinstance(tensor, SparseTensor):
            return self._run_sparse_tensor(
                "spttmc", tensor, mat_b, mat_c, mode,
                mat_b.shape[1], mat_c.shape[1], msu_mode, compute_output,
            )
        return self._run_dense_tensor(
            "dttmc", np.asarray(tensor, dtype=np.float64), mat_b, mat_c,
            mode, mat_b.shape[1], mat_c.shape[1], msu_mode, compute_output,
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
        if isinstance(a, np.ndarray):
            return self._run_dense_matrix(
                "gemm", a, mat_b, msu_mode, compute_output
            )
        coo = a.to_coo() if isinstance(a, CSRMatrix) else a
        return self._run_sparse_matrix(
            "spmm", coo, mat_b, msu_mode, compute_output
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
        if isinstance(a, np.ndarray):
            return self._run_dense_matrix(
                "gemv", a, vec, msu_mode, compute_output
            )
        coo = a.to_coo() if isinstance(a, CSRMatrix) else a
        return self._run_sparse_matrix(
            "spmv", coo, vec, msu_mode, compute_output
        )

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
    # Shared sparse mechanics: partitions, fingerprints, cached stats
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
        namespace: str,
        fp: Optional[bytes],
        mode: int,
        dims: tuple,
        build_partition: Callable[[TilingPlan], TilePartition],
    ) -> Callable[[TilingPlan], TilePartition]:
        """A memoized plan->partition lookup shared by the MSU-mode
        estimates and the subsequent run, so tile ids and the tile-major
        lexsort are computed once per tile geometry per operand."""
        local: Dict[tuple, TilePartition] = {}

        def get(plan: TilingPlan) -> TilePartition:
            geo = (plan.i_tile, plan.j_tile, plan.k_tile)
            part = local.get(geo)
            if part is None:
                if fp is None:
                    part = build_partition(plan)
                else:
                    part = self._cache.get(
                        (namespace, fp, mode, dims, geo),
                        lambda: build_partition(plan),
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
            (part.i_tile, part.j_tile, getattr(part, "k_tile", None)),
            lanes, cfg.spm_banks, costs,
        )
        return self._cache.get(key, build)

    def _sparse_totals(
        self,
        plan: TilingPlan,
        costs: KernelCosts,
        part: TilePartition,
        fp: Optional[bytes],
        mode: int,
        entry_bytes: int,
        lanes: int,
        ctx: Optional[RunFaultContext],
    ) -> _TileTotals:
        """Per-pass totals over the nonempty tiles of a sparse operand.

        Each tile loads the resident extents of its j and k blocks (edge
        tiles clip; a matrix has no k blocks) and, in direct mode, reads
        and writes the output rows it visits.
        """
        dw = self.config.data_width
        stats = self._tile_stats(part, costs, fp, mode, lanes)
        if plan.k_tile is None:
            jb, kx = part.uniq % part.nj, 0
        else:
            jb, kb = (part.uniq // part.nk) % part.nj, part.uniq % part.nk
            kx = np.minimum(plan.k_tile, part.dims[2] - kb * plan.k_tile)
        jx = np.minimum(plan.j_tile, part.dims[1] - jb * plan.j_tile)
        t_bytes = stats.num_entries * entry_bytes
        m_bytes = plan.dense_elems(jx, kx) * dw
        if plan.msu_mode == "direct":
            o_bytes = stats.num_headers * plan.out_elems * dw * 2
        else:
            o_bytes = np.zeros_like(t_bytes)
        return self._combine_tile_costs(stats, t_bytes, m_bytes, o_bytes, ctx)

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

    def _combine_tile_costs(
        self,
        stats: BatchTileStats,
        t_bytes: np.ndarray,
        m_bytes: np.ndarray,
        o_bytes: np.ndarray,
        ctx: Optional[RunFaultContext] = None,
    ) -> _TileTotals:
        """Fold per-tile lane statistics and stream bytes into the schedule
        totals.

        Shared by the tensor and matrix kernels, so both price tiles — and,
        when ``ctx`` is armed, tile-level faults — identically. With no
        fault context this is the exact pre-fault arithmetic.
        """
        compute_cycles = stats.compute_cycles
        num_tiles = int(np.asarray(t_bytes).shape[0])
        extra_t = extra_m = 0
        want_phases = obs.enabled()
        phases: Optional[Dict[str, int]] = None
        mem_cycles = np.ceil(
            (t_bytes + m_bytes + o_bytes) / self._bpc
        ).astype(np.int64)
        if ctx is None:
            cycles = int(np.maximum(compute_cycles, mem_cycles).sum())
            cycles += num_tiles * self._tile_overhead
            if want_phases:
                phases = self._tile_phases(
                    compute_cycles, mem_cycles, stats.conflict_stalls, num_tiles
                )
        else:
            outcome = ctx.apply_tile_faults(
                compute_cycles, t_bytes, m_bytes, o_bytes,
                self._bpc, self._tile_overhead,
            )
            cycles = outcome.cycles
            extra_t = outcome.extra_tensor_bytes
            extra_m = outcome.extra_matrix_bytes
            if want_phases:
                phases = self._tile_phases(
                    compute_cycles, mem_cycles, stats.conflict_stalls, num_tiles
                )
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
        conflict_stalls: Optional[np.ndarray],
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
        if conflict_stalls is None:
            stall = 0
        else:
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

    # ------------------------------------------------------------------
    # Sparse 3-d tensor kernels (SpMTTKRP / SpTTMc)
    # ------------------------------------------------------------------
    def _run_sparse_tensor(
        self,
        kernel: str,
        tensor: SparseTensor,
        mat_b: np.ndarray,
        mat_c: np.ndarray,
        mode: int,
        rank: int,
        rank2: int,
        msu_mode: str,
        compute_output: bool,
    ) -> SimReport:
        if tensor.ndim != 3:
            raise KernelError("the accelerator's tensor kernels are 3-d")
        cfg = self.config
        ctx = self._faults.begin_run(kernel)
        if ctx is not None:
            ctx.check_launch_abort()
            lanes = ctx.active_lanes(cfg.rows)
        else:
            lanes = cfg.rows
        fp = (
            self._cache.operand_fingerprint(
                (tensor.coords, tensor.values), fingerprint_arrays
            )
            if self._cache.enabled
            else None
        )

        fibers = self._fiber_plan(tensor, mode, fp)
        dims = fibers.shape
        coords = fibers.coords
        nnz = fibers.nnz
        nonempty_slices = fibers.nonempty_slices

        get_partition = self._partition_getter(
            "tensor-partition", fp, mode, dims,
            lambda plan: TensorTilePartition(
                coords, dims, plan.i_tile, plan.j_tile, plan.k_tile
            ),
        )

        def estimate(plan: TilingPlan) -> float:
            return self._estimate_traffic(
                plan, get_partition(plan), nnz, nonempty_slices, lanes, 2
            )

        resolved = self._resolve_msu_mode(kernel, dims, msu_mode, rank, rank2, estimate)
        plan = make_plan(kernel, cfg, dims, resolved, rank, rank2)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems, plan.f1_tile)
        entry_bytes = cfg.ciss_entry_bytes(index_fields=2, lanes=lanes)
        dw = cfg.data_width
        part = get_partition(plan)

        with obs.tracer().span(
            f"{kernel}.tiles", args={"tiles": part.num_tiles, "nnz": nnz}
        ):
            totals = self._sparse_totals(
                plan, costs, part, fp, mode, entry_bytes, lanes, ctx
            )

        cycles = totals.cycles
        output_bytes = totals.output_bytes
        write_cycles = 0
        if plan.msu_mode == "buffered":
            write_bytes = nonempty_slices * plan.out_elems * dw
            output_bytes += write_bytes
            write_cycles = math.ceil(write_bytes / self._bpc)
            cycles += write_cycles

        output = None
        if compute_output:
            factors = [mat_b, mat_c]
            if kernel == "spmttkrp":
                output = mttkrp_sparse_factored(
                    tensor, factors, mode, plan=fibers
                )
            else:
                output = ttmc_sparse_factored(tensor, factors, mode, plan=fibers)
        report = SimReport(
            kernel=kernel,
            cycles=int(cycles * plan.passes),
            ops=int(totals.ops * plan.passes),
            tensor_bytes=int(totals.tensor_bytes * plan.passes),
            matrix_bytes=int(totals.matrix_bytes * plan.passes),
            output_bytes=int(output_bytes * plan.passes),
            clock_ghz=cfg.clock_ghz,
            output=output,
            detail={
                "msu_mode": plan.msu_mode,
                "passes": plan.passes,
                "entries": totals.entries,
                "fibers": totals.fibers,
                "headers": totals.headers,
                "conflict_stalls": totals.conflicts,
                "nnz": nnz,
            },
            faults=ctx.finish(plan.passes) if ctx is not None else {},
            fault_events=list(ctx.events) if ctx is not None else [],
        )
        self._finish_launch_obs(report, plan.passes, totals.phases, write_cycles)
        return report

    # ------------------------------------------------------------------
    # Sparse matrix kernels (SpMM / SpMV)
    # ------------------------------------------------------------------
    def _run_sparse_matrix(
        self,
        kernel: str,
        coo: COOMatrix,
        dense_operand: np.ndarray,
        msu_mode: str,
        compute_output: bool,
    ) -> SimReport:
        cfg = self.config
        ctx = self._faults.begin_run(kernel)
        if ctx is not None:
            ctx.check_launch_abort()
            lanes = ctx.active_lanes(cfg.rows)
        else:
            lanes = cfg.rows
        dims = coo.shape
        ncols = dense_operand.shape[1] if kernel == "spmm" else 1
        fp = (
            self._cache.operand_fingerprint(
                (coo.rows, coo.cols, coo.vals), fingerprint_arrays
            )
            if self._cache.enabled
            else None
        )
        nonempty_rows = count_distinct(coo.rows)

        get_partition = self._partition_getter(
            "matrix-partition", fp, 0, dims,
            lambda plan: MatrixTilePartition(
                coo.rows, coo.cols, dims, plan.i_tile, plan.j_tile
            ),
        )

        def estimate(plan: TilingPlan) -> float:
            return self._estimate_traffic(
                plan, get_partition(plan), coo.nnz, nonempty_rows, lanes, 1
            )

        resolved = self._resolve_msu_mode(kernel, dims, msu_mode, ncols, 0, estimate)
        plan = make_plan(kernel, cfg, dims, resolved, ncols)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems)
        entry_bytes = cfg.ciss_entry_bytes(index_fields=1, lanes=lanes)
        dw = cfg.data_width
        part = get_partition(plan)

        with obs.tracer().span(
            f"{kernel}.tiles", args={"tiles": part.num_tiles, "nnz": coo.nnz}
        ):
            totals = self._sparse_totals(
                plan, costs, part, fp, 0, entry_bytes, lanes, ctx
            )

        cycles = totals.cycles
        output_bytes = totals.output_bytes
        write_cycles = 0
        if plan.msu_mode == "buffered":
            write_bytes = nonempty_rows * plan.out_elems * dw
            output_bytes += write_bytes
            write_cycles = math.ceil(write_bytes / self._bpc)
            cycles += write_cycles

        output = None
        if compute_output:
            csr = CSRMatrix.from_coo(coo)
            if kernel == "spmm":
                output = spmm_ref(csr, dense_operand)
            else:
                output = spmv_ref(csr, dense_operand)
        report = SimReport(
            kernel=kernel,
            cycles=int(cycles * plan.passes),
            ops=int(totals.ops * plan.passes),
            tensor_bytes=int(totals.tensor_bytes * plan.passes),
            matrix_bytes=int(totals.matrix_bytes * plan.passes),
            output_bytes=int(output_bytes * plan.passes),
            clock_ghz=cfg.clock_ghz,
            output=output,
            detail={
                "msu_mode": plan.msu_mode,
                "passes": plan.passes,
                "entries": totals.entries,
                "headers": totals.headers,
                "conflict_stalls": totals.conflicts,
                "nnz": coo.nnz,
            },
            faults=ctx.finish(plan.passes) if ctx is not None else {},
            fault_events=list(ctx.events) if ctx is not None else [],
        )
        self._finish_launch_obs(report, plan.passes, totals.phases, write_cycles)
        return report

    # ------------------------------------------------------------------
    # Dense kernels (closed-form uniform tiles)
    # ------------------------------------------------------------------
    def _dense_tile_stats(
        self,
        costs,
        records: int,
        headers: int,
        fibers: int,
        lanes: Optional[int] = None,
    ) -> Tuple[int, int]:
        """(compute_cycles, ops) of a uniform dense tile.

        Records distribute evenly across lanes (the on-the-fly CISS builder
        deals equal slices), so the slowest lane carries ``ceil`` shares.
        Dense mode broadcasts SPM reads — no bank conflicts. ``lanes``
        narrows the deal when the fault layer dropped PE lanes.
        """
        rows = lanes if lanes is not None else self.config.rows
        lane_records = math.ceil(records / rows)
        lane_headers = math.ceil(headers / rows)
        lane_fibers = math.ceil(fibers / rows) if costs.uses_fibers else 0
        lane_slices = lane_headers  # one drain per slice per lane
        lane_cycles = (
            costs.nnz_cycles * lane_records
            + costs.header_cycles * lane_headers
            + costs.fold_cycles * lane_fibers
            + costs.drain_cycles * lane_slices
        )
        ops = costs.ops_per_nnz * records
        if costs.uses_fibers:
            ops += costs.ops_per_fold * fibers
        return int(lane_cycles), int(ops)

    def _fold_dense_tiles(
        self,
        comp_l: list,
        tb_l: list,
        mb_l: list,
        ob_l: list,
        ctx: Optional[RunFaultContext],
    ) -> Tuple[int, int, int, Optional[Dict[str, int]]]:
        """(tile cycles, extra tensor bytes, extra matrix bytes, phases)
        over the collected per-tile cost lists — exact fault-free
        arithmetic when no fault context is armed, tile-fault overlay
        otherwise. ``phases`` is the observational cycle decomposition
        (None unless observation is active; dense tiles never stall on
        SPM banks, so there is no stall phase)."""
        comp = np.asarray(comp_l, dtype=np.int64)
        t_arr = np.asarray(tb_l, dtype=np.int64)
        m_arr = np.asarray(mb_l, dtype=np.int64)
        o_arr = np.asarray(ob_l, dtype=np.int64)
        want_phases = obs.enabled()
        phases: Optional[Dict[str, int]] = None
        mem = np.ceil((t_arr + m_arr + o_arr) / self._bpc).astype(np.int64)
        if ctx is None:
            cycles = int(np.maximum(comp, mem).sum())
            cycles += comp.shape[0] * self._tile_overhead
            if want_phases:
                phases = self._tile_phases(comp, mem, None, comp.shape[0])
            return cycles, 0, 0, phases
        outcome = ctx.apply_tile_faults(
            comp, t_arr, m_arr, o_arr, self._bpc, self._tile_overhead
        )
        if want_phases:
            phases = self._tile_phases(comp, mem, None, comp.shape[0])
            phases["recovery"] = int(outcome.cycles - sum(phases.values()))
        return (
            outcome.cycles,
            outcome.extra_tensor_bytes,
            outcome.extra_matrix_bytes,
            phases,
        )

    def _run_dense_tensor(
        self,
        kernel: str,
        tensor: np.ndarray,
        mat_b: np.ndarray,
        mat_c: np.ndarray,
        mode: int,
        rank: int,
        rank2: int,
        msu_mode: str,
        compute_output: bool,
    ) -> SimReport:
        if tensor.ndim != 3:
            raise KernelError("the accelerator's tensor kernels are 3-d")
        cfg = self.config
        ctx = self._faults.begin_run(kernel)
        if ctx is not None:
            ctx.check_launch_abort()
            lanes = ctx.active_lanes(cfg.rows)
        else:
            lanes = cfg.rows
        rest = [m for m in range(3) if m != mode]
        dims = tuple(tensor.shape[m] for m in [mode] + rest)
        resolved = "buffered" if msu_mode == "auto" else msu_mode
        plan = make_plan(kernel, cfg, dims, resolved, rank, rank2)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems, plan.f1_tile)
        dw = cfg.data_width
        out_elems = plan.out_elems

        ops = 0
        tensor_bytes = 0
        matrix_bytes = 0
        output_bytes = 0
        write_cycles = 0
        comp_l, tb_l, mb_l, ob_l = [], [], [], []
        i_dim, j_dim, k_dim = dims
        for i_lo in range(0, i_dim, plan.i_tile):
            ix = min(plan.i_tile, i_dim - i_lo)
            for j_lo in range(0, j_dim, plan.j_tile):
                jx = min(plan.j_tile, j_dim - j_lo)
                for k_lo in range(0, k_dim, plan.k_tile):
                    kx = min(plan.k_tile, k_dim - k_lo)
                    records = ix * jx * kx
                    headers = ix
                    fibers = ix * jx
                    compute, tile_ops = self._dense_tile_stats(
                        costs, records, headers, fibers, lanes
                    )
                    t_bytes = records * dw
                    m_bytes = plan.dense_elems(jx, kx) * dw
                    o_bytes = 0
                    if plan.msu_mode == "direct":
                        o_bytes = ix * out_elems * dw * 2
                    comp_l.append(compute)
                    tb_l.append(t_bytes)
                    mb_l.append(m_bytes)
                    ob_l.append(o_bytes)
                    ops += tile_ops
                    tensor_bytes += t_bytes
                    matrix_bytes += m_bytes
                    output_bytes += o_bytes
            if plan.msu_mode == "buffered":
                write = ix * out_elems * dw
                output_bytes += write
                write_cycles += math.ceil(write / self._bpc)

        tile_cycles, extra_t, extra_m, fold_phases = self._fold_dense_tiles(
            comp_l, tb_l, mb_l, ob_l, ctx
        )
        cycles = tile_cycles + write_cycles
        tensor_bytes += extra_t
        matrix_bytes += extra_m

        cycles *= plan.passes
        ops *= plan.passes
        tensor_bytes *= plan.passes
        matrix_bytes *= plan.passes
        output_bytes *= plan.passes

        output = None
        if compute_output:
            factors = [mat_b, mat_c]
            if kernel == "dmttkrp":
                output = mttkrp_dense_factored(tensor, factors, mode)
            else:
                output = ttmc_dense_factored(tensor, factors, mode)
        report = SimReport(
            kernel=kernel,
            cycles=int(cycles),
            ops=int(ops),
            tensor_bytes=int(tensor_bytes),
            matrix_bytes=int(matrix_bytes),
            output_bytes=int(output_bytes),
            clock_ghz=cfg.clock_ghz,
            output=output,
            detail={"msu_mode": plan.msu_mode, "passes": plan.passes},
            faults=ctx.finish(plan.passes) if ctx is not None else {},
            fault_events=list(ctx.events) if ctx is not None else [],
        )
        self._finish_launch_obs(report, plan.passes, fold_phases, write_cycles)
        return report

    def _run_dense_matrix(
        self,
        kernel: str,
        a: np.ndarray,
        dense_operand: np.ndarray,
        msu_mode: str,
        compute_output: bool,
    ) -> SimReport:
        cfg = self.config
        ctx = self._faults.begin_run(kernel)
        if ctx is not None:
            ctx.check_launch_abort()
            lanes = ctx.active_lanes(cfg.rows)
        else:
            lanes = cfg.rows
        a = np.asarray(a, dtype=np.float64)
        dims = a.shape
        ncols = dense_operand.shape[1] if kernel == "gemm" else 1
        resolved = "buffered" if msu_mode == "auto" else msu_mode
        plan = make_plan(kernel, cfg, dims, resolved, ncols)
        costs = kernel_costs(kernel, cfg, plan.fiber_elems)
        dw = cfg.data_width
        out_elems = plan.out_elems

        ops = 0
        tensor_bytes = 0
        matrix_bytes = 0
        output_bytes = 0
        write_cycles = 0
        comp_l, tb_l, mb_l, ob_l = [], [], [], []
        i_dim, j_dim = dims
        for i_lo in range(0, i_dim, plan.i_tile):
            ix = min(plan.i_tile, i_dim - i_lo)
            for j_lo in range(0, j_dim, plan.j_tile):
                jx = min(plan.j_tile, j_dim - j_lo)
                records = ix * jx
                headers = ix
                compute, tile_ops = self._dense_tile_stats(
                    costs, records, headers, 0, lanes
                )
                t_bytes = records * dw
                m_bytes = plan.dense_elems(jx) * dw
                o_bytes = 0
                if plan.msu_mode == "direct":
                    o_bytes = ix * out_elems * dw * 2
                comp_l.append(compute)
                tb_l.append(t_bytes)
                mb_l.append(m_bytes)
                ob_l.append(o_bytes)
                ops += tile_ops
                tensor_bytes += t_bytes
                matrix_bytes += m_bytes
                output_bytes += o_bytes
            if plan.msu_mode == "buffered":
                write = ix * out_elems * dw
                output_bytes += write
                write_cycles += math.ceil(write / self._bpc)

        tile_cycles, extra_t, extra_m, fold_phases = self._fold_dense_tiles(
            comp_l, tb_l, mb_l, ob_l, ctx
        )
        cycles = tile_cycles + write_cycles
        tensor_bytes += extra_t
        matrix_bytes += extra_m

        cycles *= plan.passes
        ops *= plan.passes
        tensor_bytes *= plan.passes
        matrix_bytes *= plan.passes
        output_bytes *= plan.passes

        output = None
        if compute_output:
            if kernel == "gemm":
                output = gemm_ref(a, dense_operand)
            else:
                output = gemv_ref(a, dense_operand)
        report = SimReport(
            kernel=kernel,
            cycles=int(cycles),
            ops=int(ops),
            tensor_bytes=int(tensor_bytes),
            matrix_bytes=int(matrix_bytes),
            output_bytes=int(output_bytes),
            clock_ghz=cfg.clock_ghz,
            output=output,
            detail={"msu_mode": plan.msu_mode, "passes": plan.passes},
            faults=ctx.finish(plan.passes) if ctx is not None else {},
            fault_events=list(ctx.events) if ctx is not None else [],
        )
        self._finish_launch_obs(report, plan.passes, fold_phases, write_cycles)
        return report


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
