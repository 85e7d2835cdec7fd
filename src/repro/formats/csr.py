"""Compressed sparse row matrix format.

Built from scratch (no scipy in the core path) so the reproduction controls
exactly what is stored and how many bytes each format streams — the quantity
the bandwidth experiments measure.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.util.errors import FormatError, ShapeError


class CSRMatrix:
    """Compressed sparse row matrix: ``indptr`` / ``indices`` / ``data``."""

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (self.shape[0] + 1,):
            raise FormatError(
                f"indptr must have length nrows+1={self.shape[0] + 1}, "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise FormatError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise FormatError("indices and data must align")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ShapeError("column index out of range")

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        counts = np.bincount(coo.rows, minlength=coo.shape[0])
        indptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # COOMatrix is already row-major sorted.
        return cls(coo.shape, indptr, coo.cols.copy(), coo.vals.copy())

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return COOMatrix(self.shape, rows, self.indices, self.data)

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise ShapeError(f"row {i} out of range")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            yield i, cols, vals

    def storage_bytes(self, data_width: int = 4, index_width: int = 4) -> int:
        """Bytes occupied: indptr + indices + data at the given widths."""
        return (
            self.indptr.shape[0] * index_width
            + self.indices.shape[0] * index_width
            + self.data.shape[0] * data_width
        )

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

