"""MTTKRP — matricized tensor times Khatri-Rao product (Section 2.2).

Four reference implementations:

- :func:`mttkrp_dense` — the naive triple loop of Eq. (1) (as einsum).
- :func:`mttkrp_dense_factored` — the Hadamard-factored form of Eq. (2)/(3),
  the algorithm the accelerator implements (fewer multiplications).
- :func:`mttkrp_sparse` — sparse tensor, fully vectorized over nonzeros.
- :func:`mttkrp_sparse_factored` — sparse tensor evaluated fiber-by-fiber in
  the exact dataflow order of Fig. 2a / Fig. 4 (inner sum over k in TSR,
  then Hadamard with B(j,:) accumulated into OSR). Used to validate the
  simulator's PE schedule against the mathematical definition.

All support any target mode and tensors of any dimensionality >= 2.
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
from repro.kernels.linalg import khatri_rao
from repro.kernels.spec import kernel_spec
from repro.tensor import SparseTensor, unfold_dense
from repro.util.errors import KernelError, ShapeError
from repro.util.validation import check_mode, check_shape_match


def _check_factors(
    shape: Sequence[int], mode: int, factors: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Validate the N-1 factor matrices for an MTTKRP along ``mode``.

    ``factors`` are the matrices for every mode except ``mode``, in
    increasing mode order (e.g. for mode 1 of a 3-d tensor: [M0, M2]).
    """
    rest = [m for m in range(len(shape)) if m != mode]
    if len(factors) != len(rest):
        raise KernelError(
            f"expected {len(rest)} factor matrices for mode {mode}, got {len(factors)}"
        )
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    rank = mats[0].shape[1] if mats else 0
    for m, mat in zip(rest, mats):
        if mat.ndim != 2:
            raise KernelError("factor matrices must be 2-d")
        check_shape_match(f"tensor mode {m}", shape[m], "factor rows", mat.shape[0])
        if mat.shape[1] != rank:
            raise ShapeError("factor matrices must share the rank F")
    return mats


def mttkrp_dense(
    tensor: np.ndarray, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """Naive MTTKRP (Eq. 1 generalized): unfold then multiply by Khatri-Rao."""
    tensor = np.asarray(tensor, dtype=np.float64)
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    return unfold_dense(tensor, mode) @ khatri_rao(mats)


def mttkrp_dense_factored(
    tensor: np.ndarray, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """Operand-factored MTTKRP (Eq. 2/3): innermost mode contracted first.

    For a 3-d tensor along mode 0 this computes, per (i, j):
    ``t = sum_k A(i,j,k) * C(k,:)`` then ``Y(i,:) += B(j,:) ◦ t`` — reducing
    multiplications from ``2*I*J*K*F`` to ``I*J*F*(K+1)``.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    rest = [m for m in range(tensor.ndim) if m != mode]
    # Bring target mode first; contract remaining modes innermost-first.
    work = np.transpose(tensor, [mode] + rest)
    # Contract the last remaining mode with its factor, then Hadamard-fold
    # the earlier ones one at a time (Eq. 3 right-to-left).
    acc = np.tensordot(work, mats[-1], axes=([work.ndim - 1], [0]))
    for mat in reversed(mats[:-1]):
        # acc has shape (I, ..., size_m, F); fold mode m via Hadamard+sum.
        acc = np.einsum("...jf,jf->...f", acc, mat)
    return acc


def mttkrp_sparse(
    tensor: SparseTensor, factors: Sequence[np.ndarray], mode: int = 0
) -> np.ndarray:
    """SpMTTKRP, vectorized over nonzeros (reference implementation)."""
    check_mode(mode, tensor.ndim)
    mats = _check_factors(tensor.shape, mode, factors)
    rank = mats[0].shape[1]
    out = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    if tensor.nnz == 0:
        return out
    rest = [m for m in range(tensor.ndim) if m != mode]
    contrib = tensor.values[:, None] * mats[-1][tensor.coords[:, rest[-1]], :]
    for m, mat in zip(reversed(rest[:-1]), reversed(mats[:-1])):
        contrib = contrib * mat[tensor.coords[:, m], :]
    np.add.at(out, tensor.coords[:, mode], contrib)
    return out


def mttkrp_sparse_factored(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int = 0,
    plan: Optional[FiberPlan] = None,
) -> np.ndarray:
    """SpMTTKRP in the accelerator's fiber-by-fiber dataflow (Fig. 2a).

    Only 3-d tensors: the PE schedule the paper describes walks slices of the
    target mode, and within a slice walks mode-1 fibers, accumulating
    ``sum_k a*C(k,:)`` (TSR) then ``B(j,:) ◦ TSR`` into the output row (OSR).

    The walk runs over the tensor's :class:`~repro.kernels.fibers.FiberPlan`
    along ``mode``, built here unless ``plan`` is given. A given plan must be
    ``fiber_plan(tensor, mode)`` of this same tensor: only its mode, shape
    and nonzero count are checked, not its contents.
    """
    if tensor.ndim != 3:
        raise KernelError("factored sparse MTTKRP is defined for 3-d tensors")
    check_mode(mode, tensor.ndim)
    mat_b, mat_c = _check_factors(tensor.shape, mode, factors)
    if plan is None:
        plan = fiber_plan(tensor, mode)
    else:
        check_plan(plan, tensor, mode)
    tsr = fiber_sums(plan, mat_c)  # (fibers, F)
    # OSR phase: Hadamard with B(j,:) and accumulate per slice i.
    tsr *= mat_b.take(plan.fiber_j, axis=0)
    cells = scatter_cells(plan.fiber_i, tsr.shape[1])
    return scatter_rows(cells, tsr, plan.shape[0])


def mttkrp_flops(
    shape: Sequence[int],
    rank: int,
    nnz: int | None = None,
    factored: bool = True,
) -> int:
    """Multiplication+addition count for MTTKRP (paper's Section 2.2 math).

    Dense naive 3-d: ``2*I*J*K*F`` multiplies (plus the same order of adds);
    factored: ``I*J*F*(K+1)`` multiplies. For sparse tensors pass ``nnz``:
    the factored form does ``F`` multiply-adds per nonzero for the inner
    contraction plus ``F`` multiply-adds per nonempty fiber (approximated by
    per-nonzero for an upper bound when fiber counts are unknown).

    Returns total *operations* (1 multiply or 1 add = 1 op), the unit the
    rooflines use (GOP/s).
    """
    shape = tuple(int(s) for s in shape)
    rank = int(rank)
    if nnz is None:
        if factored:  # every one of the I*J fibers is full
            i, j, k = shape
            return kernel_spec("mttkrp").ops(i * j * k, i * j, rank, 0)
        total = 1
        for s in shape:
            total *= s
        return 2 * total * rank * (len(shape) - 1)
    # Sparse: scalar-fiber product (mul+add) per nonzero per rank column,
    # plus the fiber-level Hadamard fold, bounded by one per nonzero.
    return kernel_spec("mttkrp").ops(int(nnz), int(nnz), rank, 0)
