"""Vectorized lane-stream analysis for the PE array.

Given the record planes of a CISS-encoded tile and a :class:`KernelCosts`
table, compute per-lane cycle counts, fiber/slice structure, operation
counts and SPM bank-conflict stalls — the quantities the accelerator model
combines into per-tile timing. The PE lane model in :mod:`repro.sim.pe`
implements the same semantics one lane stream at a time; the test suite
asserts the two agree cycle-for-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.ciss import KIND_HEADER, KIND_NNZ, KIND_PAD
from repro.sim.costs import KernelCosts


@dataclass
class LaneStats:
    """Aggregate structure and timing of one CISS tile on the PE array."""

    lane_cycles: np.ndarray  # per-lane compute cycles
    conflict_stalls: int  # SPM bank-conflict serialization cycles
    num_nnz: int
    num_headers: int  # slice/row headers == groups scheduled
    num_fibers: int  # (i, j) fiber count (0 for kernels without fiber1)
    num_entries: int
    ops: int  # scalar operations across the PE row

    @property
    def compute_cycles(self) -> int:
        """Array compute time: slowest lane plus serialization stalls."""
        slowest = int(self.lane_cycles.max()) if self.lane_cycles.size else 0
        return slowest + int(self.conflict_stalls)

    @property
    def imbalance(self) -> float:
        """Max/mean lane-cycle ratio — 1.0 is perfectly balanced."""
        if self.lane_cycles.size == 0:
            return 1.0
        mean = float(self.lane_cycles.mean())
        if mean == 0:
            return 1.0
        return float(self.lane_cycles.max()) / mean


def lane_cycle_model(costs: KernelCosts, nnz, headers, fibers, slice_ends):
    """Per-lane cycle formula: record issue + header decode + fiber folds
    (for kernels with a second operand) + slice drains.

    Shared, elementwise over scalars or arrays, by :func:`analyze_lanes`
    and the segmented batch analyzer (:mod:`repro.sim.batch`), so the two
    engines cannot drift apart on the cost arithmetic.
    """
    cycles = (
        costs.nnz_cycles * nnz
        + costs.header_cycles * headers
        + costs.drain_cycles * slice_ends
    )
    if costs.uses_fibers:
        cycles = cycles + costs.fold_cycles * fibers
    return cycles


def op_count_model(costs: KernelCosts, nnz, fibers):
    """Scalar-operation count: MACs per nonzero plus per-fiber fold ops."""
    ops = costs.ops_per_nnz * nnz
    if costs.uses_fibers:
        ops = ops + costs.ops_per_fold * fibers
    return ops


def analyze_lanes(
    kinds: np.ndarray,
    a_idx: np.ndarray,
    k_idx: np.ndarray,
    costs: KernelCosts,
    spm_banks: int,
) -> LaneStats:
    """Analyze a CISS tile's record planes under one kernel's cost table.

    ``kinds``/``a_idx``/``k_idx`` are the ``(entries, lanes)`` planes of a
    :class:`repro.formats.CISSTensor` or :class:`~repro.formats.CISSMatrix`.
    """
    kinds = np.asarray(kinds)
    entries, lanes = kinds.shape if kinds.ndim == 2 else (0, 0)
    if entries == 0:
        return LaneStats(
            lane_cycles=np.zeros(max(lanes, 1), dtype=np.int64),
            conflict_stalls=0,
            num_nnz=0,
            num_headers=0,
            num_fibers=0,
            num_entries=0,
            ops=0,
        )
    is_nnz = kinds == KIND_NNZ
    is_header = kinds == KIND_HEADER
    # Next-record planes (PAD past the end of the stream).
    nxt_kind = np.vstack([kinds[1:], np.full((1, lanes), KIND_PAD, kinds.dtype)])
    nxt_a = np.vstack([a_idx[1:], np.full((1, lanes), -1, a_idx.dtype)])
    # A fiber ends at a nonzero whose successor is not a nonzero with the
    # same mode-1 index; a slice ends at a nonzero whose successor is a
    # header or the end of the lane stream.
    fiber_end = is_nnz & (~(nxt_kind == KIND_NNZ) | (nxt_a != a_idx))
    slice_end = is_nnz & (nxt_kind != KIND_NNZ)
    nnz_per_lane = is_nnz.sum(axis=0)
    header_per_lane = is_header.sum(axis=0)
    fiber_per_lane = fiber_end.sum(axis=0)
    slice_per_lane = slice_end.sum(axis=0)
    lane_cycles = lane_cycle_model(
        costs, nnz_per_lane, header_per_lane, fiber_per_lane, slice_per_lane
    ).astype(np.int64)
    # SPM bank conflicts: simultaneous nonzero records in one entry whose
    # bank indices collide serialize through the crossbar. Dense kernels
    # broadcast (only the first PE row issues addresses), so no conflicts.
    conflict_stalls = 0
    if not costs.dense and spm_banks >= 1 and lanes > 1:
        key = k_idx if costs.bank_key == "k" else a_idx
        bank = np.where(is_nnz, key % spm_banks, -1)
        occupancy = np.zeros((entries, spm_banks), dtype=np.int64)
        rows = np.repeat(np.arange(entries), lanes)
        flat_bank = bank.ravel()
        valid = flat_bank >= 0
        np.add.at(occupancy, (rows[valid], flat_bank[valid]), 1)
        worst = occupancy.max(axis=1)
        conflict_stalls = int(np.clip(worst - 1, 0, None).sum())
    num_fibers = int(fiber_per_lane.sum()) if costs.uses_fibers else 0
    ops = int(op_count_model(costs, int(nnz_per_lane.sum()), num_fibers))
    return LaneStats(
        lane_cycles=lane_cycles,
        conflict_stalls=conflict_stalls,
        num_nnz=int(nnz_per_lane.sum()),
        num_headers=int(header_per_lane.sum()),
        num_fibers=num_fibers,
        num_entries=entries,
        ops=ops,
    )
