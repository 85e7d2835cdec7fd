"""Batched CISS tile pipeline: segmented lane analysis and encoding reuse.

The per-tile simulation path materializes one ``SparseTensor``/``COOMatrix``
slice per nonempty tile, CISS-encodes it and runs
:func:`repro.sim.lanes.analyze_lanes` on the resulting record planes — a
Python loop whose cost dwarfs the arithmetic it models. This module computes
the *same* per-tile :class:`~repro.sim.lanes.LaneStats` quantities for every
tile at once from the tile-sorted coordinate stream:

- :class:`TensorTilePartition` / :class:`MatrixTilePartition` compute tile
  ids eagerly (cheap, needed by the MSU-mode traffic estimates) and the
  tile-sorted order, tile boundaries and group structure lazily (needed only
  by the run that actually executes).
- :func:`analyze_tile_stream` replays the CISS scheduler's least-loaded
  greedy deal once over all groups and derives per-tile per-lane record
  counts, stream depths, fiber/slice structure, op counts and SPM
  bank-conflict stalls with ``np.bincount`` / ``np.add.reduceat`` segment
  reductions. The result is bit-identical to encoding each tile with
  :class:`repro.formats.CISSTensor` and analyzing it separately (asserted by
  the test suite against both the vectorized analyzer and the
  :mod:`repro.sim.pe` lane model).
- :class:`EncodingCache` is an LRU memo keyed by ``(operand fingerprint,
  shape, mode, tiling geometry, lanes, cost table)`` so repeated invocations —
  the three MTTKRPs per CP-ALS iteration, the two ``_resolve_msu_mode``
  candidate plans, design-space sweeps and benchmark reruns — reuse fiber
  plans, tile partitions and lane statistics instead of re-running sorts
  and the greedy deal.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.formats.ciss import least_loaded_deal
from repro.sim.costs import KernelCosts
from repro.sim.lanes import lane_cycle_model, op_count_model
from repro.sim.tiling import tile_count

__all__ = [
    "BatchTileStats",
    "EncodingCache",
    "MatrixTilePartition",
    "TensorTilePartition",
    "analyze_tile_stream",
    "fingerprint_arrays",
]


# ----------------------------------------------------------------------
# Operand fingerprints
# ----------------------------------------------------------------------
def fingerprint_arrays(*arrays: np.ndarray) -> bytes:
    """Content digest of one or more arrays (shape- and dtype-aware).

    Used as the operand component of :class:`EncodingCache` keys: two
    operands with equal fingerprints tile and encode identically.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(np.array(a.shape, dtype=np.int64).tobytes())
        h.update(a.tobytes())
    return h.digest()


# ----------------------------------------------------------------------
# Tile partitions
# ----------------------------------------------------------------------
class TensorTilePartition:
    """Tile decomposition of a (permuted) sparse 3-d coordinate stream.

    ``coords`` must be in canonical (lexicographic, duplicate-free) order,
    as :class:`~repro.tensor.SparseTensor` and
    :class:`~repro.kernels.fibers.FiberPlan` keep them.

    Tile ids are computed eagerly — the MSU-mode traffic estimates only
    need unique-tile counts — while the tile-sorted order, boundaries and
    slice-group structure are computed lazily, once, when the run needs
    them. The sort and grouping match the per-tile path exactly.
    """

    def __init__(
        self,
        coords: np.ndarray,
        dims: Tuple[int, int, int],
        i_tile: int,
        j_tile: int,
        k_tile: int,
    ) -> None:
        self.coords = coords
        self.dims = tuple(int(d) for d in dims)
        self.i_tile = int(i_tile)
        self.j_tile = int(j_tile)
        self.k_tile = int(k_tile)
        self.nj = tile_count(self.dims[1], self.j_tile)
        self.nk = tile_count(self.dims[2], self.k_tile)
        ib = coords[:, 0] // self.i_tile
        jb = coords[:, 1] // self.j_tile
        kb = coords[:, 2] // self.k_tile
        self.tid = (ib * self.nj + jb) * self.nk + kb

    @property
    def nnz(self) -> int:
        return int(self.coords.shape[0])

    @cached_property
    def num_tiles(self) -> int:
        """Number of nonempty tiles (cheap: no sort of the full stream)."""
        return int(np.unique(self.tid).shape[0])

    @cached_property
    def slice_visits(self) -> int:
        """Nonempty (tile, output-slice) pairs — direct-mode RMW visits."""
        return int(
            np.unique(self.tid * (self.dims[0] + 1) + self.coords[:, 0]).shape[0]
        )

    @cached_property
    def _sorted(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        coords, tid = self.coords, self.tid
        # The coordinates arrive canonical, so a stable sort on the tile id
        # alone leaves each tile's records in canonical order.
        order = np.argsort(tid, kind="stable")
        coords_s = coords[order]
        uniq, first = np.unique(tid[order], return_index=True)
        bounds = np.append(first, coords.shape[0])
        return order, coords_s, uniq, bounds

    @property
    def order(self) -> np.ndarray:
        """Tile-major record permutation (ties in canonical coord order)."""
        return self._sorted[0]

    @property
    def coords_s(self) -> np.ndarray:
        return self._sorted[1]

    @property
    def uniq(self) -> np.ndarray:
        """Nonempty tile ids in increasing order."""
        return self._sorted[2]

    @property
    def bounds(self) -> np.ndarray:
        """Record ranges: tile ``g`` spans ``bounds[g]:bounds[g+1]``."""
        return self._sorted[3]

    def stream_columns(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(slice, a, k) columns of the tile-sorted record stream."""
        cs = self.coords_s
        return cs[:, 0], cs[:, 1], cs[:, 2]


class MatrixTilePartition:
    """Tile decomposition of a sparse matrix triplet stream (rows as slices)."""

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        dims: Tuple[int, int],
        i_tile: int,
        j_tile: int,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.dims = (int(dims[0]), int(dims[1]))
        self.i_tile = int(i_tile)
        self.j_tile = int(j_tile)
        self.nj = tile_count(self.dims[1], self.j_tile)
        self.tid = (rows // self.i_tile) * self.nj + (cols // self.j_tile)

    @property
    def nnz(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def num_tiles(self) -> int:
        return int(np.unique(self.tid).shape[0])

    @cached_property
    def slice_visits(self) -> int:
        return int(np.unique(self.tid * (self.dims[0] + 1) + self.rows).shape[0])

    @cached_property
    def _sorted(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        order = np.lexsort((self.cols, self.rows, self.tid))
        rows_s = self.rows[order]
        cols_s = self.cols[order]
        uniq, first = np.unique(self.tid[order], return_index=True)
        bounds = np.append(first, self.rows.shape[0])
        return order, rows_s, cols_s, uniq, bounds

    @property
    def order(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def rows_s(self) -> np.ndarray:
        return self._sorted[1]

    @property
    def cols_s(self) -> np.ndarray:
        return self._sorted[2]

    @property
    def uniq(self) -> np.ndarray:
        return self._sorted[3]

    @property
    def bounds(self) -> np.ndarray:
        return self._sorted[4]

    def stream_columns(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(row, a, k) columns of the tile-sorted record stream (no k)."""
        return self.rows_s, self.cols_s, None


# ----------------------------------------------------------------------
# Segmented lane analysis
# ----------------------------------------------------------------------
@dataclass
class BatchTileStats:
    """Per-tile :class:`~repro.sim.lanes.LaneStats` quantities, as arrays.

    ``lane_cycles`` is ``(num_tiles, num_lanes)``; every other field is a
    length-``num_tiles`` int64 vector. ``compute_cycles`` already folds the
    conflict stalls in (slowest lane + serialization), exactly like
    ``LaneStats.compute_cycles``.
    """

    lane_cycles: np.ndarray
    compute_cycles: np.ndarray
    conflict_stalls: np.ndarray
    num_nnz: np.ndarray
    num_headers: np.ndarray
    num_fibers: np.ndarray
    num_entries: np.ndarray
    ops: np.ndarray

    @property
    def num_tiles(self) -> int:
        return int(self.num_entries.shape[0])


def _empty_stats(num_lanes: int) -> BatchTileStats:
    z = np.zeros(0, dtype=np.int64)
    return BatchTileStats(
        lane_cycles=np.zeros((0, max(num_lanes, 1)), dtype=np.int64),
        compute_cycles=z,
        conflict_stalls=z.copy(),
        num_nnz=z.copy(),
        num_headers=z.copy(),
        num_fibers=z.copy(),
        num_entries=z.copy(),
        ops=z.copy(),
    )


def _greedy_lane_deal(
    g_sizes: np.ndarray, tg_start: np.ndarray, num_lanes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay the CISS least-loaded greedy scheduler over all tiles.

    Groups arrive tile-major in increasing slice order — the order
    ``CISSTensor.from_sparse`` deals them — and lane loads reset at each
    tile boundary (``tg_start`` marks each tile's first group). Returns
    each group's lane and its start offset (the header slot) within that
    lane's stream. Ties break to the lowest lane index, matching
    :func:`repro.formats.ciss.least_loaded_deal`.

    The deal is sequential *within* a tile but independent *across* tiles,
    so the wide-fan-out case — many tiles, few groups each — steps over
    group ranks and assigns rank ``p`` for every tile in one vectorized
    argmin. Skewed partitions (a few tiles owning most groups) fall back
    to a tight scalar loop; both produce identical assignments.
    """
    num_groups = int(g_sizes.shape[0])
    num_tiles = int(tg_start.shape[0])
    g_lane = np.empty(num_groups, dtype=np.int64)
    g_off = np.empty(num_groups, dtype=np.int64)
    if num_groups == 0:
        return g_lane, g_off
    counts = np.diff(np.append(tg_start, num_groups))
    max_rank = int(counts.max())
    cost = 1 + g_sizes
    if max_rank * 16 <= num_groups:
        # Rank-stepped vectorized deal: at step p every tile that still
        # has a p-th group assigns it to its current least-loaded lane.
        loads = np.zeros((num_tiles, num_lanes), dtype=np.int64)
        active = np.arange(num_tiles)
        starts = tg_start.copy()
        for p in range(max_rank):
            alive = counts[active] > p
            if not alive.all():
                active = active[alive]
                starts = starts[alive]
            gidx = starts + p
            sub = loads[active]
            lanes = np.argmin(sub, axis=1)
            offs = sub[np.arange(active.shape[0]), lanes]
            g_lane[gidx] = lanes
            g_off[gidx] = offs
            loads[active, lanes] = offs + cost[gidx]
        return g_lane, g_off
    # Skewed partition: run the shared exact heap deal per tile segment
    # (loads reset at each tile boundary).
    ends = np.append(tg_start[1:], num_groups)
    for lo, hi in zip(tg_start.tolist(), ends.tolist()):
        if lo == hi:
            continue
        g_lane[lo:hi], g_off[lo:hi] = least_loaded_deal(cost[lo:hi], num_lanes)
    return g_lane, g_off


def analyze_tile_stream(
    slice_col: np.ndarray,
    a_col: np.ndarray,
    k_col: Optional[np.ndarray],
    bounds: np.ndarray,
    costs: KernelCosts,
    num_lanes: int,
    spm_banks: int,
) -> BatchTileStats:
    """Segmented lane analysis of a tile-sorted record stream.

    ``slice_col`` / ``a_col`` / ``k_col`` are the slice (or row), mode-1
    (or column) and mode-2 index columns of the records in tile-major,
    canonical order; tile ``g`` spans ``bounds[g]:bounds[g+1]``. The
    returned per-tile statistics equal, field for field, what
    ``analyze_lanes`` reports on each tile's own CISS encoding.
    """
    n = int(slice_col.shape[0])
    num_tiles = int(bounds.shape[0]) - 1
    if n == 0 or num_tiles <= 0:
        return _empty_stats(num_lanes)

    tile_sizes = np.diff(bounds)
    rec_tile = np.repeat(np.arange(num_tiles, dtype=np.int64), tile_sizes)

    # Slice/row groups: maximal runs of records sharing (tile, slice).
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.logical_or(
        rec_tile[1:] != rec_tile[:-1],
        slice_col[1:] != slice_col[:-1],
        out=new_group[1:],
    )
    g_start = np.flatnonzero(new_group)
    g_sizes = np.diff(np.append(g_start, n))
    g_tile = rec_tile[g_start]
    rec_group = np.cumsum(new_group) - 1

    tg_start = np.flatnonzero(np.r_[True, g_tile[1:] != g_tile[:-1]])
    g_lane, g_off = _greedy_lane_deal(g_sizes, tg_start, num_lanes)

    # Stream depth per tile: the deepest lane (header + nonzero slots).
    g_end = g_off + 1 + g_sizes
    depth = np.maximum.reduceat(g_end, tg_start)

    # Per-(tile, lane) record counts via segment bincounts.
    key_g = g_tile * num_lanes + g_lane
    size_tl = num_tiles * num_lanes
    headers_tl = np.bincount(key_g, minlength=size_tl)
    nnz_tl = np.bincount(key_g, weights=g_sizes, minlength=size_tl).astype(np.int64)

    if costs.uses_fibers:
        # A fiber ends at the last record of its group or at a mode-1
        # index change (the stream is sorted by (slice, a, k) per tile).
        fiber_end = np.empty(n, dtype=bool)
        fiber_end[-1] = True
        np.logical_or(
            rec_group[1:] != rec_group[:-1],
            a_col[1:] != a_col[:-1],
            out=fiber_end[:-1],
        )
        fibers_tl = np.bincount(
            key_g[rec_group[fiber_end]], minlength=size_tl
        )
    else:
        fibers_tl = np.zeros(size_tl, dtype=np.int64)

    # Each (nonempty) group drains exactly once: slice ends == headers.
    lane_cycles = lane_cycle_model(
        costs, nnz_tl, headers_tl, fibers_tl, headers_tl
    ).astype(np.int64).reshape(num_tiles, num_lanes)

    # SPM bank conflicts: simultaneous nonzero records in one stream entry
    # whose bank indices collide serialize through the crossbar.
    conflicts = np.zeros(num_tiles, dtype=np.int64)
    if not costs.dense and spm_banks >= 1 and num_lanes > 1:
        bank_src = k_col if costs.bank_key == "k" and k_col is not None else a_col
        bank = bank_src % spm_banks
        rec_pos = g_off[rec_group] + 1 + (np.arange(n, dtype=np.int64) - g_start[rec_group])
        ent_off = np.concatenate(([0], np.cumsum(depth)))
        total_entries = int(ent_off[-1])
        gpos = ent_off[rec_tile] + rec_pos
        occupancy = np.bincount(
            gpos * spm_banks + bank, minlength=total_entries * spm_banks
        ).reshape(total_entries, spm_banks)
        worst = occupancy.max(axis=1)
        stalls = np.clip(worst - 1, 0, None)
        conflicts = np.add.reduceat(stalls, ent_off[:-1]).astype(np.int64)

    nnz_t = nnz_tl.reshape(num_tiles, num_lanes).sum(axis=1)
    headers_t = headers_tl.reshape(num_tiles, num_lanes).sum(axis=1)
    fibers_t = fibers_tl.reshape(num_tiles, num_lanes).sum(axis=1)
    ops = op_count_model(costs, nnz_t, fibers_t)
    return BatchTileStats(
        lane_cycles=lane_cycles,
        compute_cycles=lane_cycles.max(axis=1) + conflicts,
        conflict_stalls=conflicts,
        num_nnz=nnz_t,
        num_headers=headers_t,
        num_fibers=fibers_t if costs.uses_fibers else np.zeros_like(fibers_t),
        num_entries=depth.astype(np.int64),
        ops=ops.astype(np.int64),
    )


# ----------------------------------------------------------------------
# Encoding cache
# ----------------------------------------------------------------------
class EncodingCache:
    """LRU memo for tile partitions and batched lane statistics.

    Keys are hashable tuples whose leading element namespaces the entry
    kind (``"fiber-plan"``, ``"tensor-partition"``, ``"matrix-partition"``,
    ``"tile-stats"``); the operand component is a content fingerprint from
    :func:`fingerprint_arrays` plus the operand's shape (the fingerprint
    covers the nonzeros only), so a structurally different operand can
    never alias a stale entry. ``max_entries == 0`` disables caching.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, key: tuple, builder: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building it on a miss."""
        if not self.enabled:
            self.misses += 1
            self._observe("miss")
            return builder()
        if key in self._data:
            self.hits += 1
            self._observe("hit")
            self._data.move_to_end(key)
            return self._data[key]
        self.misses += 1
        self._observe("miss")
        value = builder()
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
        return value

    @staticmethod
    def _observe(event: str) -> None:
        """Mirror a hit/miss into the active metrics registry (a few
        lookups per launch, so per-event cost is irrelevant)."""
        reg = obs.metrics()
        if reg.enabled:
            reg.counter(
                "cache.encoding", "encoding-cache lookups", ("event",)
            ).labels(event=event).inc()

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without evicting resident entries,
        so per-run cache deltas don't inherit unrelated history."""
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, int]:
        """Counters for telemetry: hits, misses and resident entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._data),
            "max_entries": self.max_entries,
        }
