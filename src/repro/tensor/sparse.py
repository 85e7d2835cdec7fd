"""N-dimensional sparse tensor in coordinate (COO) form.

The tensor keeps an ``(nnz, ndim)`` int64 coordinate array and an ``(nnz,)``
float64 value array, canonically sorted in lexicographic coordinate order
with duplicates summed. All storage formats in :mod:`repro.formats` encode
from and decode back to this representation, which makes round-trip testing
uniform.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.util.arrays import sorted_distinct
from repro.util.errors import ShapeError
from repro.util.validation import check_finite, check_mode


class SparseTensor:
    """An immutable N-dimensional sparse tensor in canonical COO form.

    Parameters
    ----------
    shape:
        Tensor dimensions, one entry per mode.
    coords:
        Integer array of shape ``(nnz, ndim)``; row ``r`` holds the mode
        indices of nonzero ``r``.
    values:
        Float array of shape ``(nnz,)``.
    canonical:
        If True the caller guarantees coords are already lexicographically
        sorted, in-range and duplicate-free, and validation is skipped. Used
        internally by constructors that produce canonical data.
    """

    __slots__ = ("_shape", "_coords", "_values")

    def __init__(
        self,
        shape: Sequence[int],
        coords: np.ndarray,
        values: np.ndarray,
        *,
        canonical: bool = False,
    ) -> None:
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ShapeError(f"all dimensions must be positive, got {shape}")
        coords = np.asarray(coords, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != len(shape):
            raise ShapeError(
                f"coords must have shape (nnz, {len(shape)}), got {coords.shape}"
            )
        if values.ndim != 1 or values.shape[0] != coords.shape[0]:
            raise ShapeError(
                f"values must have shape ({coords.shape[0]},), got {values.shape}"
            )
        if not canonical:
            coords, values = _canonicalize(shape, coords, values)
        self._shape = shape
        self._coords = coords
        self._values = values
        self._coords.setflags(write=False)
        self._values.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(
        cls,
        shape: Sequence[int],
        entries: Iterable[Tuple[Sequence[int], float]],
    ) -> "SparseTensor":
        """Build a tensor from an iterable of ``(index_tuple, value)`` pairs."""
        entry_list = list(entries)
        ndim = len(tuple(shape))
        if not entry_list:
            return cls.empty(shape)
        coords = np.array([list(idx) for idx, _ in entry_list], dtype=np.int64)
        if coords.shape[1] != ndim:
            raise ShapeError(
                f"entries have {coords.shape[1]} indices but shape has {ndim} modes"
            )
        values = np.array([v for _, v in entry_list], dtype=np.float64)
        return cls(shape, coords, values)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensor":
        """Build a sparse tensor holding the nonzeros of a dense array."""
        array = np.asarray(array, dtype=np.float64)
        check_finite("dense array values", array)
        coords = np.argwhere(array != 0.0).astype(np.int64)
        values = array[array != 0.0].astype(np.float64)
        return cls(array.shape, coords, values, canonical=True)

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "SparseTensor":
        """Return an all-zero tensor of the given shape."""
        ndim = len(tuple(shape))
        return cls(
            shape,
            np.empty((0, ndim), dtype=np.int64),
            np.empty((0,), dtype=np.float64),
            canonical=True,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def nnz(self) -> int:
        return int(self._values.shape[0])

    @property
    def coords(self) -> np.ndarray:
        """Read-only ``(nnz, ndim)`` coordinate array in canonical order."""
        return self._coords

    @property
    def values(self) -> np.ndarray:
        """Read-only ``(nnz,)`` value array aligned with :attr:`coords`."""
        return self._values

    @property
    def density(self) -> float:
        """Fraction of entries that are nonzero."""
        total = 1
        for s in self._shape:
            total *= s
        return self.nnz / total

    def norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.linalg.norm(self._values))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def slice_nnz_counts(self, mode: int) -> np.ndarray:
        """Number of nonzeros in each slice along ``mode`` (length = shape[mode]).

        A *slice* here follows the paper's usage: for a 3-d tensor and mode 0,
        slice ``i`` is ``A(i, :, :)``. The CISS scheduler balances these counts
        across PEs.
        """
        check_mode(mode, self.ndim)
        return np.bincount(self._coords[:, mode], minlength=self._shape[mode])

    def nonempty_slices(self, mode: int) -> np.ndarray:
        """Sorted indices of slices along ``mode`` that contain a nonzero."""
        counts = self.slice_nnz_counts(mode)
        return np.flatnonzero(counts)

    def iter_entries(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Iterate ``(index_tuple, value)`` pairs in canonical order."""
        for row, value in zip(self._coords, self._values):
            yield tuple(int(x) for x in row), float(value)

    def __getitem__(self, index: Sequence[int]) -> float:
        """Point lookup; O(log nnz) via binary search on the canonical order."""
        index = tuple(int(i) for i in index)
        if len(index) != self.ndim:
            raise ShapeError(f"index {index} has wrong arity for shape {self._shape}")
        for mode, (i, bound) in enumerate(zip(index, self._shape)):
            if not 0 <= i < bound:
                raise ShapeError(f"index {index} out of bounds for shape {self._shape}")
        key = _linearize(self._coords, self._shape)
        target = 0
        for i, s in zip(index, self._shape):
            target = target * s + i
        pos = int(np.searchsorted(key, target))
        if pos < key.shape[0] and key[pos] == target:
            return float(self._values[pos])
        return 0.0

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the tensor as a dense numpy array."""
        out = np.zeros(self._shape, dtype=np.float64)
        if self.nnz:
            out[tuple(self._coords.T)] = self._values
        return out

    def permute_modes(self, order: Sequence[int]) -> "SparseTensor":
        """Return the tensor with modes reordered (generalized transpose).

        The canonical invariant makes this cheap: the permuted coordinates
        are unique and in-range by construction, so one sort of their
        linear keys is all that is needed — no duplicate-summing or
        zero-dropping pass. An identity permutation returns ``self`` (the
        tensor is immutable).
        """
        order = tuple(int(m) for m in order)
        if sorted(order) != list(range(self.ndim)):
            raise ShapeError(f"order {order} is not a permutation of modes")
        if order == tuple(range(self.ndim)):
            return self
        new_shape = tuple(self._shape[m] for m in order)
        new_coords = self._coords[:, list(order)]
        # The permuted coordinates are unique, so sorting their linear keys
        # gives the lexicographic order in one argsort.
        perm = np.argsort(_linearize(new_coords, new_shape), kind="stable")
        return SparseTensor(
            new_shape, new_coords[perm], self._values[perm], canonical=True
        )

    def unfold(self, mode: int) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
        """Mode-``n`` matricization as sparse triplets.

        Returns ``(rows, cols, shape2d)`` where ``rows`` is the mode index,
        ``cols`` the linearized index over the remaining modes (in the usual
        Kolda ordering: remaining modes in increasing order, earliest mode
        varying fastest), and ``shape2d`` the matrix shape. Values align with
        :attr:`values`.
        """
        check_mode(mode, self.ndim)
        rows = self._coords[:, mode].copy()
        rest = [m for m in range(self.ndim) if m != mode]
        cols = np.zeros(self.nnz, dtype=np.int64)
        stride = 1
        for m in rest:  # earliest remaining mode varies fastest
            cols += self._coords[:, m] * stride
            stride *= self._shape[m]
        return rows, cols, (self._shape[mode], int(stride))

    def scale(self, alpha: float) -> "SparseTensor":
        """Return ``alpha * self`` (zero alpha yields the empty tensor)."""
        if alpha == 0.0:
            return SparseTensor.empty(self._shape)
        return SparseTensor(
            self._shape, self._coords, self._values * float(alpha), canonical=True
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self._shape == other._shape
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:  # immutable value object
        return hash((self._shape, self._coords.tobytes(), self._values.tobytes()))

    def __repr__(self) -> str:
        return (
            f"SparseTensor(shape={self._shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )


def _linearize(coords: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Row-major linear index of each coordinate row.

    Raises :class:`ShapeError` when there are rows to index and the shape
    has more cells than int64 can count: the keys would wrap, and distinct
    coordinates would merge or sort out of order.
    """
    if coords.shape[0] and math.prod(shape) > np.iinfo(np.int64).max:
        raise ShapeError(
            f"shape {shape} has more cells than an int64 key can index"
        )
    key = np.zeros(coords.shape[0], dtype=np.int64)
    for mode, size in enumerate(shape):
        key = key * size + coords[:, mode]
    return key


def _canonicalize(
    shape: Tuple[int, ...], coords: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate bounds, sort lexicographically, sum duplicates, drop zeros."""
    check_finite("values", values)
    for mode, size in enumerate(shape):
        col = coords[:, mode]
        if col.size and (col.min() < 0 or col.max() >= size):
            raise ShapeError(
                f"mode-{mode} indices out of range [0, {size}) in coords"
            )
    if coords.shape[0] == 0:
        return coords, values
    key = _linearize(coords, shape)
    order = np.argsort(key, kind="stable")
    key = key[order]
    coords = coords[order]
    values = values[order]
    # Sum duplicates: segment by unique linear key.
    unique_key, first = sorted_distinct(key)
    if unique_key.shape[0] != key.shape[0]:
        summed = np.add.reduceat(values, first)
        coords = coords[first]
        values = summed
    # Drop explicit zeros so density reflects true structure.
    keep = values != 0.0
    return coords[keep], values[keep]
