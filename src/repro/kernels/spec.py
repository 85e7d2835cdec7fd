"""The kernel table: Table 1's four kernel families, declared once.

Tensaurus runs one SF3 datapath for four families, each in a sparse and
a dense variant: (Sp/D)MTTKRP, (Sp/D)TTMc, SpMM/GEMM and SpMV/GEMV. A
family answers to three names:

- its family name (``name``), which tiling plans, serving requests,
  tuner workloads and the baseline models carry;
- the report name of its sparse variant (``sparse``) and of its dense
  variant (``dense``), which simulator reports, cost tables and driver
  programs carry. A matrix family's sparse report name is its family
  name.

Every layer that takes a kernel name resolves it with :func:`kernel_spec`
instead of keeping its own list of names or aliases. An entry that must
tell the sparse variant from the dense one (the cost tables, the
driver's ``SET_MODE``) accepts report names only; the rest accept all
three. Nothing else per kernel lives here: the tile-shape rules are on
:class:`repro.sim.tiling.TilingPlan`, and the kernels themselves are
reached through the accelerator's ``run_<name>`` methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.util.errors import KernelError


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family of Table 1."""

    name: str  # family name
    sparse: str  # report name of the sparse variant
    dense: str  # report name of the dense variant
    order: int  # order of the sparse operand: 3 (tensor) or 2 (matrix)
    #: Arithmetic operations of one launch in operand-factored form,
    #: ``ops(nnz, fibers, rank, rank2)``: ``nnz`` nonzeros (records),
    #: ``fibers`` nonempty ``(i, j)`` fibers, ``rank`` the F of MTTKRP and
    #: SpMM or the F1 of TTMc, ``rank2`` the F2 of TTMc. Each nonzero
    #: scales one fiber0 row (a multiply and an add per element) and each
    #: fiber end folds it with one fiber1 row (Hadamard or Kronecker).
    ops: Callable[[int, int, int, int], int] = field(repr=False, compare=False)


#: The four families, in the order the serving pool enumerates a
#: workload's kernels (its trace draws index that order).
KERNELS: Tuple[KernelSpec, ...] = (
    KernelSpec("mttkrp", "spmttkrp", "dmttkrp", 3,
               lambda nnz, fibers, f, _: 2 * nnz * f + 2 * fibers * f),
    KernelSpec("ttmc", "spttmc", "dttmc", 3,
               lambda nnz, fibers, f1, f2: 2 * nnz * f2 + 2 * fibers * f1 * f2),
    KernelSpec("spmm", "spmm", "gemm", 2,
               lambda nnz, fibers, f, _: 2 * nnz * f),
    KernelSpec("spmv", "spmv", "gemv", 2,
               lambda nnz, fibers, f, _: 2 * nnz),
)

_BY_NAME: Dict[str, KernelSpec] = {
    name: spec for spec in KERNELS for name in (spec.name, spec.sparse, spec.dense)
}


def kernel_spec(name: str) -> KernelSpec:
    """The family ``name`` belongs to (any of its three names, any case).

    Raises :class:`~repro.util.errors.KernelError` for any other name.
    """
    spec = _BY_NAME.get(str(name).lower())
    if spec is None:
        raise KernelError(f"unknown kernel {name!r}")
    return spec
