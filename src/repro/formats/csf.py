"""Compressed sparse fiber (CSF) — SPLATT's tensor format.

A CSF tensor is a forest: level 0 holds the distinct indices of the first
mode in ``mode_order``, level 1 the distinct (mode0, mode1) fibers, and the
last level the nonzero values. The CPU baseline (SPLATT) traverses this tree
for SpMTTKRP/SpTTMc, so the reproduction needs it both as a correctness
reference and for the CPU cost model's memory-traffic estimates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.tensor import SparseTensor
from repro.util.errors import FormatError, ShapeError


class CSFTensor:
    """Compressed sparse fiber tree for an N-dimensional sparse tensor.

    Attributes
    ----------
    mode_order:
        Permutation of modes from root (level 0) to leaves.
    fptr:
        ``fptr[l]`` are the child pointers from level ``l`` to level ``l+1``,
        for ``l in [0, ndim-2]``; length ``len(fids[l]) + 1``.
    fids:
        ``fids[l]`` are the index values at level ``l`` (in the original
        tensor's mode ``mode_order[l]``).
    vals:
        Leaf values aligned with ``fids[-1]``.
    """

    __slots__ = ("shape", "mode_order", "fptr", "fids", "vals")

    def __init__(
        self,
        shape: Sequence[int],
        mode_order: Sequence[int],
        fptr: List[np.ndarray],
        fids: List[np.ndarray],
        vals: np.ndarray,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.mode_order = tuple(int(m) for m in mode_order)
        ndim = len(self.shape)
        if sorted(self.mode_order) != list(range(ndim)):
            raise ShapeError("mode_order must be a permutation of modes")
        if len(fids) != ndim or len(fptr) != ndim - 1:
            raise FormatError("level arrays inconsistent with dimensionality")
        self.fptr = [np.asarray(p, dtype=np.int64) for p in fptr]
        self.fids = [np.asarray(f, dtype=np.int64) for f in fids]
        self.vals = np.asarray(vals, dtype=np.float64)
        if self.fids[-1].shape != self.vals.shape:
            raise FormatError("leaf indices and values must align")
        for level in range(ndim - 1):
            if self.fptr[level].shape != (self.fids[level].shape[0] + 1,):
                raise FormatError(f"fptr[{level}] has wrong length")
            if self.fptr[level][-1] != self.fids[level + 1].shape[0]:
                raise FormatError(f"fptr[{level}] does not cover level {level + 1}")

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @classmethod
    def from_sparse(
        cls, tensor: SparseTensor, mode_order: Sequence[int] | None = None
    ) -> "CSFTensor":
        """Build a CSF tree; default mode order is natural (0, 1, ..., N-1)."""
        ndim = tensor.ndim
        if mode_order is None:
            mode_order = tuple(range(ndim))
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(ndim)):
            raise ShapeError("mode_order must be a permutation of modes")
        perm = tensor.permute_modes(mode_order)
        coords = perm.coords  # canonical lexicographic order in permuted modes
        vals = perm.values
        fids: List[np.ndarray] = []
        fptr: List[np.ndarray] = []
        nnz = perm.nnz
        if nnz == 0:
            fids = [np.empty(0, dtype=np.int64) for _ in range(ndim)]
            fptr = [np.zeros(1, dtype=np.int64) for _ in range(ndim - 1)]
            return cls(tensor.shape, mode_order, fptr, fids, vals)
        if ndim == 1:
            # The tree is its leaf level: one node per nonzero.
            return cls(tensor.shape, mode_order, [], [coords[:, 0].copy()], vals)
        # Canonical coordinates are unique and sorted, so the full prefix
        # changes at every record: the leaf level is exactly
        # ``coords[:, -1]`` with one child per record, and only the
        # ``ndim - 1`` interior levels need change-flag scans. Level-major
        # flags keep each scan contiguous, and a running OR turns per-mode
        # changes into prefix changes.
        prefix = np.empty((ndim - 1, nnz), dtype=bool)
        prefix[:, 0] = True
        for level in range(ndim - 1):
            np.not_equal(
                coords[1:, level], coords[:-1, level], out=prefix[level, 1:]
            )
            if level > 0:
                prefix[level, 1:] |= prefix[level - 1, 1:]
        child_starts = np.flatnonzero(prefix[0])
        for level in range(ndim):
            if level == 0:
                starts = child_starts
            elif level < ndim - 1:
                starts = np.flatnonzero(prefix[level])
            else:
                fids.append(coords[:, level].copy())
                fptr.append(np.append(child_starts, nnz).astype(np.int64))
                break
            fids.append(coords[starts, level])
            if level > 0:
                # Parent pointers: position of each parent start within starts.
                ptr = np.searchsorted(starts, child_starts)
                ptr = np.append(ptr, starts.shape[0])
                fptr.append(ptr.astype(np.int64))
            child_starts = starts
        return cls(tensor.shape, mode_order, fptr, fids, vals)

    def to_sparse(self) -> SparseTensor:
        """Decode the tree back to canonical COO form."""
        ndim = self.ndim
        nnz = self.nnz
        cols = np.zeros((nnz, ndim), dtype=np.int64)
        # Expand each level's fids down to the leaves via repeated fptr spans.
        for level in range(ndim):
            ids = self.fids[level]
            for lower in range(level, ndim - 1):
                ids = np.repeat(ids, np.diff(self.fptr[lower]))
            cols[:, self.mode_order[level]] = ids
        return SparseTensor(self.shape, cols, self.vals)

    def fiber_count(self, level: int) -> int:
        """Number of distinct fibers (nodes) at a tree level."""
        if not 0 <= level < self.ndim:
            raise ShapeError(f"level {level} out of range")
        return int(self.fids[level].shape[0])

    def traversal_word_count(self) -> int:
        """Words touched by one full SPLATT-style traversal (ptr + idx + val).

        This feeds the CPU baseline's memory-traffic estimate for SpMTTKRP.
        """
        words = self.vals.shape[0]  # values
        for level in range(self.ndim):
            words += self.fids[level].shape[0]
        for level in range(self.ndim - 1):
            words += self.fptr[level].shape[0]
        return int(words)

    def __repr__(self) -> str:
        return (
            f"CSFTensor(shape={self.shape}, order={self.mode_order}, "
            f"nnz={self.nnz})"
        )
