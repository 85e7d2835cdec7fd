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
accumulations both kernels share. Both work row-major, as the accelerator
streams whole factor rows ``C(k,:)`` and ``B(j,:)`` into whole output rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import List, Tuple

import numpy as np

from repro.tensor import SparseTensor
from repro.util.arrays import sorted_distinct
from repro.util.errors import KernelError
from repro.util.validation import check_mode


@dataclass(frozen=True, eq=False)
class FiberPlan:
    """Fiber layout of one 3-d tensor along one target mode.

    Every array is read-only. ``coords`` / ``values`` are the canonical
    nonzeros of the tensor with ``mode`` moved first (the other two modes
    follow in increasing order); fiber ``f`` spans records
    ``starts[f]:starts[f+1]`` and sits in slice ``fiber_i[f]`` at mode-1
    index ``fiber_j[f]``. ``schedule`` is the plan's TSR schedule.
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

    @cached_property
    def schedule(self) -> "TSRSchedule":
        """The TSR schedule, built on first use: a timing-only launch never
        sums fibers, so it never pays for one."""
        return tsr_schedule(self)


#: numpy's pairwise summation adds runs of up to ``_BLOCK`` terms with
#: ``_LANES`` interleaved accumulators and halves longer runs.
_LANES = 8
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class TSRSchedule:
    """A step-major order of a plan's records that sums each fiber exactly
    as ``np.add.reduceat`` does, with O(longest fiber) numpy calls.

    For records ``a0..aL-1`` reduceat returns ``a0 + P(a1..aL-1)``, where
    ``P`` is numpy's pairwise sum: fewer than 8 terms are added left to
    right; 8 to 128 terms feed eight interleaved accumulators ``r0..r7``,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the leftover
    terms are then added in order; a longer run is split at half its length
    rounded down to a multiple of 8 and the two halves' sums are added.

    The terms after each fiber's head form *segments* of at most 128 terms:
    one per fiber, or, for a longer fiber, the leaves of numpy's split.
    Segments sit in slots sorted by length, longest first, so the ``q``-th
    terms of all segments that have one are the slots ``[0, at_least[q+1])``.
    ``at_least[x]`` counts the segments with at least ``x`` terms. ``k``
    and ``values`` hold every record's mode-2 index and value: the fiber
    heads, then every record after a head once, in one contiguous block
    per ``q`` of those slots' ``q``-th terms. The slots in ``slots`` end up
    holding the pairwise sum of the fibers ``fibers``; each level of
    ``merges`` adds the sum in the right slots into the left ones, which
    rebuilds a split fiber's sum from its leaves.
    """

    k: np.ndarray
    values: np.ndarray
    at_least: Tuple[int, ...]
    slots: np.ndarray
    fibers: np.ndarray
    merges: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def _pairwise_split(n: int):
    """numpy's split of an ``n``-term pairwise sum: the leaves as
    ``(offset, size)`` left to right, and the merges as ``(height, left
    leaf, right leaf)``; a merge leaves its sum in its left leaf's slot."""
    if n <= _BLOCK:
        return [(0, n)], [], 0
    half = n // 2 - (n // 2) % _LANES
    left, left_merges, left_h = _pairwise_split(half)
    right, right_merges, right_h = _pairwise_split(n - half)
    k = len(left)
    height = max(left_h, right_h) + 1
    leaves = left + [(half + off, size) for off, size in right]
    merges = left_merges + [(h, a + k, b + k) for h, a, b in right_merges]
    return leaves, merges + [(height, 0, k)], height


def _index(values, bound: int) -> np.ndarray:
    """A read-only index array, int32 unless ``bound`` needs int64."""
    arr = np.asarray(values, dtype=np.int32 if bound < 2**31 else np.int64)
    arr.setflags(write=False)
    return arr


def tsr_schedule(plan: FiberPlan) -> TSRSchedule:
    """Build the :class:`TSRSchedule` of ``plan``."""
    starts = plan.starts
    n_terms = np.diff(starts, append=plan.nnz) - 1
    short = np.flatnonzero((n_terms > 0) & (n_terms <= _BLOCK))
    seg_first = [starts[short] + 1]
    seg_size = [n_terms[short]]
    roots = [np.arange(short.size)]
    root_fibers = [short]
    merge_parts: List[Tuple[int, np.ndarray, np.ndarray]] = []
    base = short.size
    long_terms = n_terms[n_terms > _BLOCK]
    long_fibers = np.flatnonzero(n_terms > _BLOCK)
    # Fibers of one length split alike: lay their leaves out together.
    for n in sorted_distinct(np.sort(long_terms))[0]:
        group = long_fibers[long_terms == n]
        leaves, merges, _ = _pairwise_split(int(n))
        offsets, sizes = np.array(leaves).T
        ids = base + len(leaves) * np.arange(group.size)
        seg_first.append(((starts[group] + 1)[:, None] + offsets).ravel())
        seg_size.append(np.tile(sizes, group.size))
        roots.append(ids)
        root_fibers.append(group)
        merge_parts += [(h, ids + a, ids + b) for h, a, b in merges]
        base += ids.size * len(leaves)
    first = np.concatenate(seg_first)
    size = np.concatenate(seg_size)
    by_length = np.argsort(-size, kind="stable")
    slot_of = np.empty_like(by_length)
    slot_of[by_length] = np.arange(by_length.size)
    first = first[by_length]
    counts = np.bincount(size, minlength=_BLOCK + _LANES + 1)
    at_least = tuple(np.cumsum(counts[::-1])[::-1].tolist())
    # The fiber heads, then block q: the q-th term of every slot that has one.
    records = np.concatenate([starts] + [
        first[: at_least[q + 1]] + q for q in range(size.max(initial=0))
    ])
    # Merge levels, lowest first; the merges of one level touch disjoint
    # slots, so each level is one vectorized add.
    merges = []
    for level in sorted({h for h, _, _ in merge_parts}):
        pairs = [(a, b) for h, a, b in merge_parts if h == level]
        left, right = (slot_of[np.concatenate(side)] for side in zip(*pairs))
        merges.append((_index(left, base), _index(right, base)))
    values = plan.values[records]
    values.setflags(write=False)
    return TSRSchedule(
        k=_index(plan.coords[records, 2], plan.shape[2]),
        values=values,
        at_least=at_least,
        slots=_index(slot_of[np.concatenate(roots)], base),
        fibers=_index(np.concatenate(root_fibers), starts.size),
        merges=tuple(merges),
    )


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
    """TSR: ``sum_k a * C(k,:)`` over each fiber, one row per fiber.

    Bit-identical to ``np.add.reduceat`` over the fibers' records, which
    runs one inner loop per (fiber, column). This gathers and scales every
    record's ``C(k,:)`` row once, in the step-major order of the plan's
    :class:`TSRSchedule`, then sums whole rows in place with one or two slice
    adds per term position, and returns the C-contiguous head rows.
    """
    sched = plan.schedule
    # Every record scaled once, into one buffer: the fiber heads, then
    # block q of the schedule, each slot's q-th term.
    scaled = mat_c.take(sched.k, axis=0)
    scaled *= sched.values[:, None]
    tsr = scaled[: plan.starts.size]
    terms = scaled[plan.starts.size:]
    at_least = sched.at_least
    off = list(accumulate(at_least[1:], initial=0))
    # Block 0 becomes each slot's running sum. The slots with at least 8
    # terms (the first at_least[8]) keep r0..r7 in blocks 0..7.
    seq = terms[: at_least[1]]
    lanes = [terms[off[j]:off[j] + at_least[_LANES]] for j in range(_LANES)]
    for q in range(1, _BLOCK + 1):
        if q % _LANES == 0:
            # Slots with q..q+7 terms have filled their accumulators:
            # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), in place into r0, which
            # is their running sum.
            lo, hi = at_least[q + _LANES], at_least[q]
            r = [lane[lo:hi] for lane in lanes]
            for left, right in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7),
                                (4, 6), (0, 4)):
                r[left] += r[right]
        m = at_least[q + 1]
        if m == 0:
            break
        step = terms[off[q]:off[q] + m]
        # Slots [0, a) still fill accumulators; [a, m) add in order.
        a = at_least[_LANES * (q // _LANES + 1)]
        if q >= _LANES:
            lanes[q % _LANES][:a] += step[:a]
        seq[a:m] += step[a:m]
    for left, right in sched.merges:
        seq[left] += seq[right]
    tsr[sched.fibers] += seq[sched.slots]
    return tsr


def scatter_cells(rows: np.ndarray, width: int) -> np.ndarray:
    """The flat ``(row, column)`` output cell of every entry of a row-major
    ``(len(rows), width)`` block whose row ``n`` goes to output row
    ``rows[n]``: the index :func:`scatter_rows` sums over. Built per call,
    never kept in a plan (it holds ``len(rows) * width`` int64 cells)."""
    return ((rows * width)[:, None] + np.arange(width)).ravel()


def scatter_rows(
    cells: np.ndarray, contrib: np.ndarray, num_rows: int
) -> np.ndarray:
    """``out[rows[n], :] += contrib[n, :]`` over ``n`` in order, from zero,
    where ``cells`` is ``scatter_cells(rows, contrib.shape[1])``.

    The OSR accumulation: one ``np.bincount`` over the flattened ``(row,
    column)`` cell of every entry of a row-major ``contrib``. bincount adds
    its weights in input order starting from 0.0, so each cell sums its
    rows in order, exactly as ``np.add.at`` into a zeroed output does, and
    the result is bit-identical to that scatter.
    """
    width = contrib.shape[1]
    sums = np.bincount(cells, contrib.ravel(), num_rows * width)
    # bincount returns int64 zeros when it has no weights at all.
    return sums.reshape(num_rows, width).astype(np.float64, copy=False)
