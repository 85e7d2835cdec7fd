"""TTMc — tensor times matrix chain (Section 2.3).

- :func:`ttmc_dense` — naive Eq. (4) (as einsum over the full tensor).
- :func:`ttmc_dense_factored` — Kronecker-factored Eq. (5)/(6).
- :func:`ttmc_sparse` — sparse reference, vectorized over nonzeros.
- :func:`ttmc_sparse_factored` — fiber-by-fiber dataflow of Fig. 2b: the
  inner sum over k is held in TSR, then each element of B(j,:) scales TSR
  into a distinct OSR register (the outer product, Section 5.2.4).

For a 3-d tensor along mode 0: ``Y(i, f1, f2) = sum_{j,k} A(i,j,k) *
B(j,f1) * C(k,f2)`` — the output is a dense ``I x F1 x F2`` tensor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.fibers import (
    FiberPlan,
    check_plan,
    fiber_plan,
    fiber_sums,
    scatter_cells,
    scatter_rows,
)
from repro.kernels.spec import kernel_spec
from repro.tensor import SparseTensor
from repro.util.errors import KernelError
from repro.util.validation import check_mode, check_shape_match


def _check_factors(
    shape: Sequence[int], mode: int, factors: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Validate the N-1 factor matrices; unlike MTTKRP, ranks may differ."""
    rest = [m for m in range(len(shape)) if m != mode]
    if len(factors) != len(rest):
        raise KernelError(
            f"expected {len(rest)} factor matrices for mode {mode}, got {len(factors)}"
        )
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for m, mat in zip(rest, mats):
        if mat.ndim != 2:
            raise KernelError("factor matrices must be 2-d")
        check_shape_match(f"tensor mode {m}", shape[m], "factor rows", mat.shape[0])
    return mats


def ttmc_dense(
    tensor: np.ndarray, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """Naive TTMc: contract every non-target mode with its matrix."""
    tensor = np.asarray(tensor, dtype=np.float64)
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    rest = [m for m in range(tensor.ndim) if m != mode]
    out = np.transpose(tensor, [mode] + rest)
    # Contract each remaining mode in turn. Contracting axis 1 repeatedly
    # appends rank axes at the tail in rest order, yielding (I, F1, ..., Fp).
    for mat in mats:
        out = np.tensordot(out, mat, axes=([1], [0]))
    return out


def ttmc_dense_factored(
    tensor: np.ndarray, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """Kronecker-factored TTMc (Eq. 5/6).

    Contracts the innermost remaining mode first (``sum_k A(i,j,k)*C(k,:)``),
    then expands outward with Kronecker products against the earlier factor
    rows — cutting multiplications from ``2*I*J*K*F1*F2`` to
    ``I*J*(K*F2 + F1*F2)`` for the 3-d case.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    rest = [m for m in range(tensor.ndim) if m != mode]
    work = np.transpose(tensor, [mode] + rest)
    # Innermost contraction: sum over the last remaining mode.
    acc = np.tensordot(work, mats[-1], axes=([work.ndim - 1], [0]))
    # Outer folds (Eq. 6 right-to-left): fold each earlier structural axis q
    # with its factor; the new rank axis must land where the structural axis
    # was so rank axes end up in rest order.
    for q in range(len(rest) - 2, -1, -1):
        axis = 1 + q  # axis of the structural mode being folded
        acc = np.moveaxis(
            np.tensordot(acc, mats[q], axes=([axis], [0])), -1, axis
        )
    return acc


def ttmc_sparse(
    tensor: SparseTensor, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """SpTTMc, vectorized over nonzeros (reference implementation)."""
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    rest = [m for m in range(tensor.ndim) if m != mode]
    ranks = tuple(mat.shape[1] for mat in mats)
    out = np.zeros((tensor.shape[mode],) + ranks, dtype=np.float64)
    if tensor.nnz == 0:
        return out
    # contrib[n] = v_n * outer(M_{rest[0]}[i_{rest[0]}], ..., M_{rest[-1]}[...])
    contrib = tensor.values.reshape((-1,) + (1,) * len(rest))
    for pos, (m, mat) in enumerate(zip(rest, mats)):
        sel = mat[tensor.coords[:, m], :]
        shape = [tensor.nnz] + [1] * len(rest)
        shape[1 + pos] = mat.shape[1]
        contrib = contrib * sel.reshape(shape)
    np.add.at(out, tensor.coords[:, mode], contrib)
    return out


def ttmc_sparse_factored(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int = 0,
    plan: Optional[FiberPlan] = None,
) -> np.ndarray:
    """SpTTMc in the accelerator's fiber-by-fiber dataflow (Fig. 2b).

    3-d only: per (i, j) fiber accumulate ``t = sum_k a*C(k,:)`` (TSR), then
    stream B(j,:) one element at a time, each scaling TSR into one OSR
    register — the outer product ``B(j,:) ⊗ t`` — accumulated per slice.

    The walk runs over the tensor's :class:`~repro.kernels.fibers.FiberPlan`
    along ``mode``, built here unless ``plan`` is given. A given plan must be
    ``fiber_plan(tensor, mode)`` of this same tensor: only its mode, shape
    and nonzero count are checked, not its contents.
    """
    if tensor.ndim != 3:
        raise KernelError("factored sparse TTMc is defined for 3-d tensors")
    check_mode(mode, tensor.ndim)
    mat_b, mat_c = _check_factors(tensor.shape, mode, factors)
    if plan is None:
        plan = fiber_plan(tensor, mode)
    else:
        check_plan(plan, tensor, mode)
    num_rows = plan.shape[0]
    tsr = fiber_sums(plan, mat_c)  # (fibers, F2)
    b_rows = mat_b.take(plan.fiber_j, axis=0)  # (fibers, F1)
    out = np.empty((num_rows, b_rows.shape[1], tsr.shape[1]))
    # One column of B(j,:) ⊗ TSR at a time, never the whole outer product;
    # every column scatters into the same (slice, F2) cells.
    cells = scatter_cells(plan.fiber_i, tsr.shape[1])
    for a in range(b_rows.shape[1]):
        contrib = b_rows[:, a, None] * tsr
        out[:, a] = scatter_rows(cells, contrib, num_rows)
    return out


def ttmc_flops(
    shape: Sequence[int],
    ranks: Sequence[int],
    nnz: int | None = None,
    factored: bool = True,
) -> int:
    """Operation count for 3-d TTMc per the paper's Section 2.3 arithmetic.

    Dense naive: ``2 * I*J*K * F1*F2`` multiplies; factored:
    ``I*J*(K*F2 + F1*F2)``. Counts mul+add pairs as 2 ops. For sparse pass
    ``nnz``: the factored form costs ``2*nnz*F2`` for the inner contraction
    plus ``2*fibers*F1*F2`` for the Kronecker fold (fibers bounded by nnz).
    """
    shape = tuple(int(s) for s in shape)
    f1, f2 = int(ranks[0]), int(ranks[1])
    spec = kernel_spec("ttmc")
    if nnz is None:
        i, j, k = shape
        if factored:  # every one of the I*J fibers is full
            return spec.ops(i * j * k, i * j, f1, f2)
        return 2 * i * j * k * f1 * f2 * 2 // 2
    return spec.ops(int(nnz), int(nnz), f1, f2)
