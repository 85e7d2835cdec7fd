"""Fiber plans: the mode-permuted layout the factored sparse kernels walk.

The accelerator's tensor kernels (Fig. 2, Fig. 4) stream a 3-d tensor
slice by slice along the target mode and, within a slice, fiber by fiber
along the next mode. :func:`fiber_plan` derives that layout once per
(tensor, mode): the canonical coordinates and values of the mode-permuted
tensor, where each ``(i, j)`` fiber starts, and which slice and row each
fiber belongs to. The layout depends on the tensor and the mode only, not
on the factor matrices, so one plan serves every MTTKRP / TTMc of that
mode across ALS sweeps — the way SPLATT keeps one compressed layout per
mode.

:func:`fiber_sums` (TSR) and :func:`scatter_rows` (OSR) are the two
accumulations both kernels share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tensor import SparseTensor
from repro.util.errors import KernelError
from repro.util.validation import check_mode


@dataclass(frozen=True, eq=False)
class FiberPlan:
    """Fiber layout of one 3-d tensor along one target mode.

    Every array is read-only. ``coords`` / ``values`` are the canonical
    nonzeros of the tensor with ``mode`` moved first (the other two modes
    follow in increasing order); fiber ``f`` spans records
    ``starts[f]:starts[f+1]`` and sits in slice ``fiber_i[f]`` at mode-1
    index ``fiber_j[f]``.
    """

    mode: int
    shape: Tuple[int, int, int]
    coords: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    fiber_i: np.ndarray
    fiber_j: np.ndarray
    nonempty_slices: int

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])


def fiber_plan(tensor: SparseTensor, mode: int) -> FiberPlan:
    """Build the :class:`FiberPlan` of ``tensor`` along ``mode``."""
    if tensor.ndim != 3:
        raise KernelError("fiber plans are defined for 3-d tensors")
    check_mode(mode, tensor.ndim)
    rest = [m for m in range(3) if m != mode]
    perm = tensor.permute_modes([mode] + rest)
    coords = perm.coords
    n = perm.nnz
    # Canonical order sorts by (i, j, k), so each (i, j) fiber is one
    # contiguous run and each slice one run of fibers.
    fiber_break = np.ones(n, dtype=bool)
    fiber_break[1:] = (coords[1:, 0] != coords[:-1, 0]) | (
        coords[1:, 1] != coords[:-1, 1]
    )
    starts = np.flatnonzero(fiber_break)
    fiber_i = coords[starts, 0]
    fiber_j = coords[starts, 1]
    # fiber_i is sorted, so every change of value starts a new slice.
    nonempty = int(fiber_i.size > 0) + int(
        np.count_nonzero(fiber_i[1:] != fiber_i[:-1])
    )
    for arr in (starts, fiber_i, fiber_j):
        arr.setflags(write=False)
    return FiberPlan(
        mode=int(mode),
        shape=perm.shape,
        coords=coords,
        values=perm.values,
        starts=starts,
        fiber_i=fiber_i,
        fiber_j=fiber_j,
        nonempty_slices=nonempty,
    )


def check_plan(plan: FiberPlan, tensor: SparseTensor, mode: int) -> None:
    """Reject a plan built for another mode or another tensor shape."""
    rest = [m for m in range(3) if m != mode]
    shape = (tensor.shape[mode],) + tuple(tensor.shape[m] for m in rest)
    if plan.mode != mode or plan.shape != shape or plan.nnz != tensor.nnz:
        raise KernelError(
            f"fiber plan for mode {plan.mode} of a {plan.shape} tensor with "
            f"{plan.nnz} nonzeros does not match mode {mode} of {tensor!r}"
        )


def fiber_sums(plan: FiberPlan, mat_c: np.ndarray) -> np.ndarray:
    """TSR: ``sum_k a * C(k,:)`` over each fiber, one row per fiber."""
    if plan.nnz == 0:
        return np.zeros((0, mat_c.shape[1]), dtype=np.float64)
    scaled = mat_c[plan.coords[:, 2], :]
    scaled *= plan.values[:, None]
    return np.add.reduceat(scaled, plan.starts, axis=0)


def scatter_rows(
    rows: np.ndarray, contrib: np.ndarray, num_rows: int
) -> np.ndarray:
    """``out[rows[n], :] += contrib[n, :]`` over ``n`` in order, from zero.

    The OSR accumulation: one ``np.bincount`` per output column. Each
    bincount adds its weights in input order starting from 0.0, exactly
    as ``np.add.at`` into a zeroed output does, so the result is
    bit-identical to that scatter.
    """
    out = np.empty((num_rows, contrib.shape[1]), dtype=np.float64)
    for f in range(contrib.shape[1]):
        out[:, f] = np.bincount(rows, weights=contrib[:, f], minlength=num_rows)
    return out
