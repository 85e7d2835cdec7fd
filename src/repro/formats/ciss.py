"""Compressed interleaved sparse slice (CISS) — the paper's contribution.

A CISS stream is an array of *entries*; each entry carries one record per PE
lane, so the data all ``P`` PEs consume at one cycle occupies one contiguous
memory block (Section 4, Fig. 3d). Each lane record is a triple
``(nnz, i/j, k)``:

- ``nnz == 0`` marks a **header**: ``i/j`` holds the index of the slice
  (tensor) or row (matrix) now assigned to this lane.
- ``nnz != 0`` marks a **nonzero**: ``i/j`` holds the mode-1 / column index
  and ``k`` the mode-2 index (tensors only).

Slices are dealt to lanes with a least-loaded greedy scheduler ("the next
available slice ... to the PE with the least data"), which both balances
work and determines the interleaving. Unlike CISR, every lane stream is
self-describing (headers travel in-band), so no centralized row decoder or
lock-step consumption is required, and the format extends to tensors.

The hardware discriminates headers by ``nnz == 0``; this implementation also
carries an explicit ``kind`` plane (header / nonzero / padding) so that the
simulator and the decoders never rely on floating-point comparison, and so
padding at the tail of short lanes is explicit and measurable.

The encoder replays the least-loaded deal with an integer-encoded heap
(``load * num_lanes + lane``, so the heap minimum is exactly the
least-loaded / lowest-lane choice) and scatters all record planes in one
vectorized pass. :class:`CISSTensor` and :class:`CISSMatrix` look
:func:`least_loaded_deal` up at call time, so an ablation can swap their
dealing policy by patching that one module attribute.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.tensor import SparseTensor
from repro.util.errors import FormatError, ShapeError

KIND_HEADER = 0
KIND_NNZ = 1
KIND_PAD = 2

@dataclass(frozen=True)
class LaneRecord:
    """One decoded lane record (mostly for tests and debugging)."""

    kind: int
    a: int  # slice/row index for headers; j / column index for nonzeros
    k: int  # mode-2 index for tensor nonzeros; -1 otherwise
    val: float


class _CISSBase:
    """Shared storage and lane mechanics for CISS matrices and tensors."""

    __slots__ = ("shape", "num_lanes", "kinds", "a_idx", "k_idx", "vals", "_memo")

    #: number of index fields per record (2 for tensors: i/j and k; 1 for
    #: matrices: i/j only). Subclasses override.
    index_fields = 2

    def __init__(
        self,
        shape: Sequence[int],
        num_lanes: int,
        kinds: np.ndarray,
        a_idx: np.ndarray,
        k_idx: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.num_lanes = int(num_lanes)
        if self.num_lanes <= 0:
            raise ShapeError("num_lanes must be positive")
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.a_idx = np.asarray(a_idx, dtype=np.int64)
        self.k_idx = np.asarray(k_idx, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self._memo = {}
        expected = self.kinds.shape
        if len(expected) != 2 or expected[1] != self.num_lanes:
            raise FormatError("record planes must be (entries, num_lanes)")
        for plane in (self.a_idx, self.k_idx, self.vals):
            if plane.shape != expected:
                raise FormatError("record planes must all have the same shape")
        nonzero = self.vals != 0.0
        if np.any(nonzero & (self.kinds == KIND_HEADER)):
            raise FormatError("header records must carry value 0 (nnz==0 sentinel)")
        if np.any(~nonzero & (self.kinds == KIND_NNZ)):
            raise FormatError("nonzero records must carry a nonzero value")

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Number of CISS entries (the stream length in wide words)."""
        return int(self.kinds.shape[0])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_NNZ))

    def entry_bytes(self, data_width: int = 4, index_width: int = 2) -> int:
        """Bytes per CISS entry: ``(dw + index_fields*iw) * P`` bits, in bytes.

        Matches the paper's ``(dw + 2*iw) * P`` for tensors.
        """
        bits = (8 * data_width + self.index_fields * 8 * index_width) * self.num_lanes
        return bits // 8

    def stream_bytes(self, data_width: int = 4, index_width: int = 2) -> int:
        """Total bytes of the encoded stream."""
        return self.num_entries * self.entry_bytes(data_width, index_width)

    def padding_fraction(self) -> float:
        """Fraction of lane slots that are padding (tail imbalance)."""
        total = self.kinds.size
        if total == 0:
            return 0.0
        return float(np.count_nonzero(self.kinds == KIND_PAD)) / total

    def lane_nnz_counts(self) -> np.ndarray:
        """Nonzero records per lane — the scheduler's balance target."""
        return np.count_nonzero(self.kinds == KIND_NNZ, axis=0)

    def lane_records(self, lane: int) -> Tuple[LaneRecord, ...]:
        """Decoded record tuple for one lane (headers, nonzeros, pads).

        The decode is materialized once per lane and cached on the stream
        (the planes are immutable), so repeated calls — ``PELane.run``,
        trace charts, tests — stop rebuilding per-entry Python objects.
        """
        if not 0 <= lane < self.num_lanes:
            raise ShapeError(f"lane {lane} out of range")
        key = ("lane", lane)
        cached = self._memo.get(key)
        if cached is None:
            kinds = self.kinds[:, lane].tolist()
            a_col = self.a_idx[:, lane].tolist()
            k_col = self.k_idx[:, lane].tolist()
            val_col = self.vals[:, lane].tolist()
            cached = tuple(
                LaneRecord(kind, a, k, val)
                for kind, a, k, val in zip(kinds, a_col, k_col, val_col)
            )
            self._memo[key] = cached
        return cached

    def lane_arrays(self, lane: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One lane's record columns as contiguous arrays (kinds, a, k, val).

        The array form of :meth:`lane_records`, consumed by the PE lane and
        the event engine: no per-record Python objects, just the four
        column vectors of length ``num_entries``. Cached per lane; the
        returned arrays are the cache — treat them as read-only.
        """
        if not 0 <= lane < self.num_lanes:
            raise ShapeError(f"lane {lane} out of range")
        key = ("lane_arrays", lane)
        cached = self._memo.get(key)
        if cached is None:
            cached = (
                np.ascontiguousarray(self.kinds[:, lane]),
                np.ascontiguousarray(self.a_idx[:, lane]),
                np.ascontiguousarray(self.k_idx[:, lane]),
                np.ascontiguousarray(self.vals[:, lane]),
            )
            self._memo[key] = cached
        return cached

    def pe_address_trace(
        self,
        num_pes: int | None = None,
        data_width: int = 4,
        index_width: int = 2,
        base_address: int = 0,
    ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per-cycle ``(address, size)`` requests when streaming the format.

        All lanes' data for entry ``t`` is one contiguous block, so each
        cycle issues a single wide request — the access pattern that lets
        CISS saturate bandwidth in Fig. 3e. Cached per parameterization.
        """
        if num_pes is not None and num_pes != self.num_lanes:
            raise ShapeError(
                f"stream encoded for {self.num_lanes} lanes, not {num_pes}"
            )
        key = ("trace", data_width, index_width, base_address)
        cached = self._memo.get(key)
        if cached is None:
            size = self.entry_bytes(data_width, index_width)
            cached = tuple(
                ((base_address + t * size, size),) for t in range(self.num_entries)
            )
            self._memo[key] = cached
        return cached


def least_loaded_deal(
    costs: np.ndarray, num_lanes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized replay of the least-loaded greedy deal.

    Groups are dealt in order; group ``g`` (costing ``costs[g]`` lane slots)
    goes to the currently least-loaded lane, ties broken toward the lowest
    lane index. Returns
    ``(g_lane, g_off)``: the lane each group landed on and the entry row of
    its first slot (its running offset within that lane).

    Two strategies cover the real cases:

    - **uniform costs** (every group the same size, e.g. dense rows or
      rank-``r`` tile groups): the deal degenerates to round-robin —
      ``lane = g % P``, ``offset = (g // P) * cost`` — provable by
      induction since all lane loads stay within one cost of each other.
    - otherwise an **integer-encoded heap** holds ``load * P + lane`` per
      lane; the heap minimum is the lexicographic (load, lane) minimum, so
      popping and pushing back ``+ cost * P`` replays the exact greedy
      choice in ``O(G log P)`` without per-group Python list scans.
    """
    if num_lanes <= 0:
        raise ShapeError("num_lanes must be positive")
    costs = np.ascontiguousarray(costs, dtype=np.int64)
    num_groups = int(costs.shape[0])
    if num_groups == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    if num_lanes == 1:
        ends = np.cumsum(costs)
        return np.zeros(num_groups, dtype=np.int64), ends - costs
    if costs.min() == costs.max():
        cost = int(costs[0])
        grp = np.arange(num_groups, dtype=np.int64)
        return grp % num_lanes, (grp // num_lanes) * cost
    heap = list(range(num_lanes))
    encoded: List[int] = []
    append = encoded.append
    replace = heapq.heapreplace
    for step in (costs * num_lanes).tolist():
        value = heap[0]
        append(value)
        replace(heap, value + step)
    enc = np.array(encoded, dtype=np.int64)
    return enc % num_lanes, enc // num_lanes


def _contiguous_groups(
    leading: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a sorted leading-index column.

    Returns ``(group_ids, group_first, group_sizes)`` where ``group_first``
    is each run's first record position. Records are canonically sorted, so
    every nonempty slice/row is exactly one run, in increasing id order.
    """
    n = int(leading.shape[0])
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(leading[1:], leading[:-1], out=new_group[1:])
    first = np.flatnonzero(new_group)
    sizes = np.diff(np.append(first, n))
    return leading[first], first, sizes


def _build_planes(
    num_lanes: int,
    leading: np.ndarray,
    a_src: np.ndarray,
    k_src: np.ndarray | None,
    val_src: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized plane build: deal the groups, then one scatter per plane.

    ``leading`` is the sorted slice/row column that groups the records;
    ``a_src``/``k_src``/``val_src`` are the columns nonzero records carry.
    The deal offsets *are* each lane's running slot count (groups land on
    a lane in deal order), so the header of group ``g`` goes to
    ``(g_off, g_lane)`` and its record ``r`` to ``(g_off + 1 + r,
    g_lane)``. Lanes shorter than the deepest one are padded at the tail.
    """
    group_ids, group_first, group_sizes = _contiguous_groups(leading)
    g_lane, g_off = least_loaded_deal(1 + group_sizes, num_lanes)
    num_groups = int(group_ids.shape[0])
    depth = int((g_off + 1 + group_sizes).max()) if num_groups else 0
    kinds = np.full((depth, num_lanes), KIND_PAD, dtype=np.uint8)
    a_idx = np.full((depth, num_lanes), -1, dtype=np.int64)
    k_idx = np.full((depth, num_lanes), -1, dtype=np.int64)
    vals = np.zeros((depth, num_lanes), dtype=np.float64)
    if num_groups:
        head_flat = g_off * num_lanes + g_lane
        kinds.ravel()[head_flat] = KIND_HEADER
        a_idx.ravel()[head_flat] = group_ids
        # Record ``t`` of group ``g`` lands at flat position
        # ``(g_off[g] + 1 + t - group_first[g]) * P + g_lane[g]``: a
        # per-group base (repeated over its records) plus ``t * P``.
        total = int(group_first[-1] + group_sizes[-1])
        flat = np.repeat(
            (g_off - group_first + 1) * num_lanes + g_lane, group_sizes
        )
        flat += np.arange(total, dtype=np.int64) * num_lanes
        kinds.ravel()[flat] = KIND_NNZ
        a_idx.ravel()[flat] = a_src
        if k_src is not None:
            k_idx.ravel()[flat] = k_src
        vals.ravel()[flat] = val_src
    return kinds, a_idx, k_idx, vals


class CISSTensor(_CISSBase):
    """CISS encoding of a 3-d sparse tensor, sliced along a chosen mode."""

    index_fields = 2

    def __init__(self, shape, num_lanes, kinds, a_idx, k_idx, vals, mode: int = 0):
        if len(tuple(shape)) != 3:
            raise ShapeError("CISSTensor stores 3-d tensors")
        super().__init__(shape, num_lanes, kinds, a_idx, k_idx, vals)
        if not 0 <= mode < 3:
            raise ShapeError("slice mode must be 0, 1 or 2")
        self.mode = int(mode)

    __slots__ = ("mode",)

    @classmethod
    def from_sparse(
        cls, tensor: SparseTensor, num_lanes: int, mode: int = 0
    ) -> "CISSTensor":
        """Encode a 3-d sparse tensor, slicing along ``mode``.

        MTTKRP/TTMc along mode ``n`` iterate slices ``A(i, :, :)`` of that
        mode; the encoder permutes the tensor so the slice mode leads, then
        deals slices to lanes least-loaded-first.
        """
        if tensor.ndim != 3:
            raise ShapeError("CISSTensor stores 3-d tensors")
        if not 0 <= mode < 3:
            raise ShapeError("slice mode must be 0, 1 or 2")
        rest = [m for m in range(3) if m != mode]
        perm = tensor if mode == 0 else tensor.permute_modes([mode] + rest)
        coords = perm.coords
        planes = _build_planes(
            num_lanes, coords[:, 0], coords[:, 1], coords[:, 2], perm.values
        )
        return cls(tensor.shape, num_lanes, *planes, mode=mode)

    @classmethod
    def from_dense(
        cls, array: np.ndarray, num_lanes: int, mode: int = 0
    ) -> "CISSTensor":
        """On-the-fly CISS construction from dense data (TLU dense mode)."""
        return cls.from_sparse(SparseTensor.from_dense(array), num_lanes, mode)

    def to_sparse(self) -> SparseTensor:
        """Decode every lane independently back to canonical COO form."""
        coords: List[Tuple[int, int, int]] = []
        vals: List[float] = []
        for lane in range(self.num_lanes):
            current = -1
            for t in range(self.num_entries):
                kind = self.kinds[t, lane]
                if kind == KIND_PAD:
                    continue
                if kind == KIND_HEADER:
                    current = int(self.a_idx[t, lane])
                    continue
                if current < 0:
                    raise FormatError("nonzero record before any slice header")
                coords.append(
                    (current, int(self.a_idx[t, lane]), int(self.k_idx[t, lane]))
                )
                vals.append(float(self.vals[t, lane]))
        rest = [m for m in range(3) if m != self.mode]
        perm_shape = (self.shape[self.mode],) + tuple(self.shape[m] for m in rest)
        coords_arr = (
            np.array(coords, dtype=np.int64)
            if coords
            else np.empty((0, 3), dtype=np.int64)
        )
        perm = SparseTensor(perm_shape, coords_arr, np.array(vals, dtype=np.float64))
        inverse = np.argsort([self.mode] + rest)
        return perm.permute_modes(inverse)

    def __repr__(self) -> str:
        return (
            f"CISSTensor(shape={self.shape}, mode={self.mode}, "
            f"lanes={self.num_lanes}, entries={self.num_entries})"
        )


class CISSMatrix(_CISSBase):
    """CISS encoding of a sparse matrix (rows play the role of slices)."""

    index_fields = 1

    @classmethod
    def from_coo(cls, coo: COOMatrix, num_lanes: int) -> "CISSMatrix":
        planes = _build_planes(num_lanes, coo.rows, coo.cols, None, coo.vals)
        return cls(coo.shape, num_lanes, *planes)

    @classmethod
    def from_dense(cls, array: np.ndarray, num_lanes: int) -> "CISSMatrix":
        """On-the-fly CISS construction from a dense matrix (TLU dense mode)."""
        return cls.from_coo(COOMatrix.from_dense(array), num_lanes)

    def to_coo(self) -> COOMatrix:
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for lane in range(self.num_lanes):
            current = -1
            for t in range(self.num_entries):
                kind = self.kinds[t, lane]
                if kind == KIND_PAD:
                    continue
                if kind == KIND_HEADER:
                    current = int(self.a_idx[t, lane])
                    continue
                if current < 0:
                    raise FormatError("nonzero record before any row header")
                rows.append(current)
                cols.append(int(self.a_idx[t, lane]))
                vals.append(float(self.vals[t, lane]))
        return COOMatrix(
            self.shape,
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64),
        )

    def __repr__(self) -> str:
        return (
            f"CISSMatrix(shape={self.shape}, lanes={self.num_lanes}, "
            f"entries={self.num_entries})"
        )
