"""Coordinate-format sparse matrix."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.arrays import sorted_distinct
from repro.util.errors import ShapeError


class COOMatrix:
    """A 2-d sparse matrix as (row, col, value) triplets in row-major order.

    This is the matrix-rank-2 analogue of :class:`repro.tensor.SparseTensor`
    and the interchange point between the matrix formats.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(
        self,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ShapeError("rows, cols, vals must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.shape[0]:
                raise ShapeError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.shape[1]:
                raise ShapeError("col index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # Canonicalize like SparseTensor: sum duplicate coordinates and drop
        # explicit zeros, so to_dense() and the kernels agree on semantics.
        if rows.size:
            key = rows * self.shape[1] + cols
            unique_key, first = sorted_distinct(key)
            if unique_key.shape[0] != key.shape[0]:
                vals = np.add.reduceat(vals, first)
                rows = rows[first]
                cols = cols[first]
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        self.rows = rows
        self.cols = cols
        self.vals = vals

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-d array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.rows, self.cols] = self.vals
        return out

    def row_nnz_counts(self) -> np.ndarray:
        """Nonzeros per row (the CISS scheduler balances these)."""
        return np.bincount(self.rows, minlength=self.shape[0])

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
