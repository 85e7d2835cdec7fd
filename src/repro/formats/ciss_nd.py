"""N-dimensional generalization of CISS.

Section 4: "Although described for 3-d tensors, the CISS format can be
easily generalized to 2-d matrices and tensors with more than three
dimensions." This module makes that concrete: a lane record for an
N-dimensional tensor carries ``N - 1`` index fields —

- header records (``nnz == 0``): the first index field holds the slice
  index along the slicing mode; the rest are don't-cares;
- nonzero records: the index fields hold the remaining modes' indices in
  increasing mode order.

The 3-d :class:`repro.formats.CISSTensor` is the ``ndim == 3`` special case
(same scheduling, same sentinel semantics); :class:`CISSTensorND` accepts
any ``ndim >= 2`` and exposes the same stream/byte accounting so the
bandwidth analyses extend to higher-order tensors.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.formats.ciss import (
    KIND_HEADER,
    KIND_NNZ,
    KIND_PAD,
    _contiguous_groups,
    least_loaded_deal,
)
from repro.tensor import SparseTensor
from repro.util.errors import FormatError, ShapeError


class CISSTensorND:
    """CISS encoding of an N-dimensional sparse tensor.

    Attributes
    ----------
    kinds:
        ``(entries, lanes)`` record-kind plane.
    idx:
        ``(entries, lanes, ndim - 1)`` index fields. For headers only field
        0 is meaningful (the slice index); for nonzeros field ``f`` is the
        index of remaining mode ``f``.
    vals:
        ``(entries, lanes)`` value plane (0 for headers/padding).
    """

    __slots__ = ("shape", "mode", "num_lanes", "kinds", "idx", "vals")

    def __init__(
        self,
        shape: Tuple[int, ...],
        mode: int,
        num_lanes: int,
        kinds: np.ndarray,
        idx: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        ndim = len(self.shape)
        if ndim < 2:
            raise ShapeError("CISSTensorND needs at least 2 modes")
        if not 0 <= mode < ndim:
            raise ShapeError(f"slice mode {mode} out of range")
        if num_lanes <= 0:
            raise ShapeError("num_lanes must be positive")
        self.mode = int(mode)
        self.num_lanes = int(num_lanes)
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        if self.kinds.ndim != 2 or self.kinds.shape[1] != self.num_lanes:
            raise FormatError("kinds must be (entries, lanes)")
        if self.idx.shape != self.kinds.shape + (ndim - 1,):
            raise FormatError("idx must be (entries, lanes, ndim-1)")
        if self.vals.shape != self.kinds.shape:
            raise FormatError("vals must align with kinds")
        if np.any(self.vals[self.kinds == KIND_HEADER] != 0.0):
            raise FormatError("header records must carry value 0")
        if np.any(self.vals[self.kinds == KIND_NNZ] == 0.0):
            raise FormatError("nonzero records must carry a nonzero value")

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_entries(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_NNZ))

    @property
    def index_fields(self) -> int:
        return self.ndim - 1

    def entry_bytes(self, data_width: int = 4, index_width: int = 2) -> int:
        """Paper formula generalized: ``(dw + (ndim-1)*iw) * P``."""
        return (data_width + self.index_fields * index_width) * self.num_lanes

    def stream_bytes(self, data_width: int = 4, index_width: int = 2) -> int:
        return self.num_entries * self.entry_bytes(data_width, index_width)

    def lane_nnz_counts(self) -> np.ndarray:
        return np.count_nonzero(self.kinds == KIND_NNZ, axis=0)

    def padding_fraction(self) -> float:
        if self.kinds.size == 0:
            return 0.0
        return float(np.count_nonzero(self.kinds == KIND_PAD)) / self.kinds.size

    # ------------------------------------------------------------------
    @classmethod
    def from_sparse(
        cls, tensor: SparseTensor, num_lanes: int, mode: int = 0
    ) -> "CISSTensorND":
        """Encode, slicing along ``mode``; remaining modes keep their order.

        Same construction as :func:`repro.formats.ciss._build_planes` (deal
        the slices least-loaded-first, then one scatter per plane) with an
        ``(entries, lanes, ndim-1)`` index plane instead of the 3-d
        ``a_idx``/``k_idx`` pair.
        """
        ndim = tensor.ndim
        if ndim < 2:
            raise ShapeError("CISSTensorND needs at least 2 modes")
        if not 0 <= mode < ndim:
            raise ShapeError(f"slice mode {mode} out of range")
        rest = [m for m in range(ndim) if m != mode]
        perm = tensor if mode == 0 else tensor.permute_modes([mode] + rest)
        coords = perm.coords
        group_ids, group_first, group_sizes = _contiguous_groups(coords[:, 0])
        g_lane, g_off = least_loaded_deal(1 + group_sizes, num_lanes)
        num_groups = int(group_ids.shape[0])
        depth = int((g_off + 1 + group_sizes).max()) if num_groups else 0
        kinds = np.full((depth, num_lanes), KIND_PAD, dtype=np.uint8)
        idx = np.full((depth, num_lanes, ndim - 1), -1, dtype=np.int64)
        vals = np.zeros((depth, num_lanes), dtype=np.float64)
        if num_groups:
            kinds[g_off, g_lane] = KIND_HEADER
            idx[g_off, g_lane, 0] = group_ids
            total = int(group_first[-1] + group_sizes[-1])
            rec_group = np.repeat(np.arange(num_groups, dtype=np.int64), group_sizes)
            rec_row = (
                g_off[rec_group]
                + 1
                + (np.arange(total, dtype=np.int64) - group_first[rec_group])
            )
            rec_col = g_lane[rec_group]
            kinds[rec_row, rec_col] = KIND_NNZ
            idx[rec_row, rec_col, :] = coords[:, 1:]
            vals[rec_row, rec_col] = perm.values
        return cls(tensor.shape, mode, num_lanes, kinds, idx, vals)

    def to_sparse(self) -> SparseTensor:
        """Decode every lane independently back to canonical COO form."""
        ndim = self.ndim
        rest = [m for m in range(ndim) if m != self.mode]
        coords_out: List[np.ndarray] = []
        vals_out: List[float] = []
        for lane in range(self.num_lanes):
            current = -1
            for t in range(self.num_entries):
                kind = self.kinds[t, lane]
                if kind == KIND_PAD:
                    continue
                if kind == KIND_HEADER:
                    current = int(self.idx[t, lane, 0])
                    continue
                if current < 0:
                    raise FormatError("nonzero record before any slice header")
                row = np.empty(ndim, dtype=np.int64)
                row[0] = current
                row[1:] = self.idx[t, lane, :]
                coords_out.append(row)
                vals_out.append(float(self.vals[t, lane]))
        perm_shape = (self.shape[self.mode],) + tuple(self.shape[m] for m in rest)
        coords_arr = (
            np.stack(coords_out)
            if coords_out
            else np.empty((0, ndim), dtype=np.int64)
        )
        perm = SparseTensor(
            perm_shape, coords_arr, np.array(vals_out, dtype=np.float64)
        )
        inverse = np.argsort([self.mode] + rest)
        return perm.permute_modes(inverse)

    def __repr__(self) -> str:
        return (
            f"CISSTensorND(shape={self.shape}, mode={self.mode}, "
            f"lanes={self.num_lanes}, entries={self.num_entries})"
        )
