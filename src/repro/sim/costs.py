"""Per-record timing and operation costs of the PE dataflow (Section 5.2.4).

Every simulator engine (the PE lane model, the event engine and the tiled
array engine) draws its constants from :class:`KernelCosts`, so the lane
model and the tiled engine are cycle-identical by construction. The costs encode the paper's PE
behaviour:

- Every lane record costs ``cycles_per_record`` (one SPM access cycle plus
  one SIMD VVMUL/VVADD cycle — "each PE spends every other clock cycle to
  access the scratchpads").
- At the end of a fiber, MTTKRP fetches the B row and folds TSR into OSR
  (one fetch + one MAC cycle); TTMc instead *streams* the B row one element
  per cycle, each scaling TSR into a distinct OSR register (the Kronecker
  product), so its fold cost grows with the F1 tile.
- At the end of a slice/row, the OSR drains to the MSU; the drain is
  pipelined through the shift registers so it costs one bookkeeping cycle
  for Hadamard-style kernels and ``f1_tile`` shifts for TTMc.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import TensaurusConfig
from repro.util.errors import KernelError

#: Kernels the accelerator supports (Table 1).
SPARSE_KERNELS = ("spmttkrp", "spttmc", "spmm", "spmv")
DENSE_KERNELS = ("dmttkrp", "dttmc", "gemm", "gemv")
ALL_KERNELS = SPARSE_KERNELS + DENSE_KERNELS


@dataclass(frozen=True)
class KernelCosts:
    """Cycle and op costs for one kernel at one tile configuration.

    Cycle costs are per PE-row lane; op counts are summed across the whole
    PE row (all ``cols`` PEs x ``vlen`` SIMD lanes working on the record).
    """

    kernel: str
    nnz_cycles: int  # cycles per nonzero record
    header_cycles: int  # cycles per slice/row header record
    fold_cycles: int  # extra cycles at each fiber end (0 if no fiber1)
    drain_cycles: int  # extra cycles at each slice/row end
    ops_per_nnz: int  # scalar ops per nonzero record (PE row total)
    ops_per_fold: int  # scalar ops per fiber end
    uses_fibers: bool  # True for MTTKRP/TTMc (TSR + fiber1 machinery)
    bank_key: str  # which index field addresses the SPM banks: "k" or "a"
    dense: bool  # dense kernels broadcast (no bank conflicts)


def kernel_costs(
    kernel: str,
    config: TensaurusConfig,
    fiber_elems: int,
    f1_tile: int = 0,
) -> KernelCosts:
    """Build the cost table for ``kernel`` at the given tile widths.

    ``fiber_elems`` is the number of output-fiber elements produced per
    record across the PE row (the F tile for MTTKRP/SpMM, the F2 tile for
    TTMc, 1 for SpMV/GEMV). ``f1_tile`` is the TTMc-only F1 tile held in
    the OSR (bounded by OLEN == VLEN).
    """
    kernel = kernel.lower()
    if kernel not in ALL_KERNELS:
        raise KernelError(f"unknown kernel {kernel!r}")
    base = config.cycles_per_record
    dense = kernel in DENSE_KERNELS
    if kernel in ("spmttkrp", "dmttkrp"):
        return KernelCosts(
            kernel=kernel,
            nnz_cycles=base,
            header_cycles=1,
            fold_cycles=base,  # fetch B row + VVMUL/VVADD with OSR
            drain_cycles=1,
            ops_per_nnz=2 * fiber_elems,
            ops_per_fold=2 * fiber_elems,
            uses_fibers=True,
            bank_key="k",
            dense=dense,
        )
    if kernel in ("spttmc", "dttmc"):
        if f1_tile <= 0:
            raise KernelError("TTMc needs a positive f1_tile")
        return KernelCosts(
            kernel=kernel,
            nnz_cycles=base,
            header_cycles=1,
            # Fetch the B row, then stream its f1_tile elements one per
            # cycle, each a VVMUL into one OSR register.
            fold_cycles=1 + f1_tile,
            drain_cycles=f1_tile,
            ops_per_nnz=2 * fiber_elems,
            ops_per_fold=2 * f1_tile * fiber_elems,
            uses_fibers=True,
            bank_key="k",
            dense=dense,
        )
    if kernel in ("spmm", "gemm"):
        return KernelCosts(
            kernel=kernel,
            nnz_cycles=base,
            header_cycles=1,
            fold_cycles=0,
            drain_cycles=1,
            ops_per_nnz=2 * fiber_elems,
            ops_per_fold=0,
            uses_fibers=False,
            bank_key="a",
            dense=dense,
        )
    # spmv / gemv: one scalar MAC per record, first PE column only.
    return KernelCosts(
        kernel=kernel,
        nnz_cycles=base,
        header_cycles=1,
        fold_cycles=0,
        drain_cycles=1,
        ops_per_nnz=2,
        ops_per_fold=0,
        uses_fibers=False,
        bank_key="a",
        dense=dense,
    )
