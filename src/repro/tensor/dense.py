"""Dense tensor helpers: matricization (unfolding) and its inverse.

These implement the standard Kolda & Bader conventions used by the kernels
and factorization algorithms: in the mode-``n`` unfolding the remaining modes
are ordered increasingly with the earliest varying fastest, matching
:meth:`repro.tensor.SparseTensor.unfold`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.util.validation import check_mode


def unfold_dense(array: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``n`` matricization of a dense tensor.

    Result has shape ``(shape[mode], prod(other modes))`` with the earliest
    remaining mode varying fastest along columns (Fortran-style over the
    remaining modes), matching the sparse unfolding.
    """
    array = np.asarray(array)
    check_mode(mode, array.ndim)
    rest = [m for m in range(array.ndim) if m != mode]
    moved = np.transpose(array, [mode] + rest)
    return moved.reshape(array.shape[mode], -1, order="F")


def fold_dense(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold_dense`: rebuild the tensor from its unfolding."""
    shape = tuple(int(s) for s in shape)
    check_mode(mode, len(shape))
    rest = [m for m in range(len(shape)) if m != mode]
    interim: Tuple[int, ...] = (shape[mode],) + tuple(shape[m] for m in rest)
    tensor = np.asarray(matrix).reshape(interim, order="F")
    # Invert the [mode] + rest permutation.
    inverse = np.argsort([mode] + rest)
    return np.transpose(tensor, inverse)
