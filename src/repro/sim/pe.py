"""One PE row executing a CISS lane stream (Section 5.2.4, Fig. 5b).

:class:`PELane` replays one lane's CISS record stream the way one PE row
does: the TSR accumulates ``sum_D0 scalar * fiber0``, the fiber fold applies
``fiber1 op TSR`` into the OSR, and slice/row boundaries drain the OSR to
the MSU. It produces both the *functional* result (accumulated into a dense
output array) and the exact cycle count under the
:class:`~repro.sim.costs.KernelCosts` table the other engines use, plus,
on request, the ``(cycle, event, detail)`` micro-events of the walk.

It demonstrates that the CISS stream alone carries everything a PE needs
(no centralized decode — the limitation of CISR that CISS lifts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.formats.ciss import KIND_HEADER, KIND_NNZ, KIND_PAD, LaneRecord
from repro.sim.costs import KernelCosts
from repro.util.errors import SimulationError

#: Micro-event names, indexed by event code.
_EVENTS = ("header", "mac", "fold", "drain")


def _segmented_sequential_sum(
    contrib: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Left-to-right sum of ``contrib[starts[s]:ends[s]]`` per segment.

    The PE's accumulation chain: the first element is *assigned* (not
    added to zero, which would flip -0.0) and the rest are added one rank
    at a time — sequential within a segment, vectorized across segments.
    ``np.add.reduceat`` is NOT a substitute: its pairwise summation
    reorders long chains and changes the rounding.
    """
    lengths = ends - starts
    n = lengths.shape[0]
    if n == 0:
        return contrib[starts].copy()
    maxlen = int(lengths.max())
    if maxlen <= 1:
        return contrib[starts].copy()
    # Sort segments longest-first so each rank step touches a contiguous
    # prefix (slice writes instead of boolean scatters); the per-segment
    # addition chain is unchanged, so so is every rounding step.
    order = np.argsort(-lengths, kind="stable")
    s_ord = starts[order]
    neg_l = -lengths[order]
    out_ord = contrib[s_ord]
    # prefix size at rank p: how many segments still have an element
    ms = np.searchsorted(neg_l, -np.arange(1, maxlen), side="left")
    idx_buf = np.empty(n, dtype=s_ord.dtype)
    gat_buf = np.empty_like(out_ord)
    for p in range(1, maxlen):
        m = ms[p - 1]
        idx = np.add(s_ord[:m], p, out=idx_buf[:m])
        gathered = np.take(contrib, idx, axis=0, out=gat_buf[:m])
        np.add(out_ord[:m], gathered, out=out_ord[:m])
    out = np.empty_like(out_ord)
    out[order] = out_ord
    return out


def _first_run_boundaries(*keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal keys."""
    n = keys[0].shape[0]
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for key in keys:
            new[1:] |= key[1:] != key[:-1]
    return new


def lane_pass_arrays(
    costs: KernelCosts,
    fiber0: np.ndarray,
    fiber1: Optional[np.ndarray],
    f1_tile: int,
    kinds: np.ndarray,
    a_idx: np.ndarray,
    k_idx: np.ndarray,
    vals: np.ndarray,
    out: np.ndarray,
    strict_kinds: bool = True,
) -> "LaneRunResult":
    """Array-level replay of one lane's record stream.

    Accumulates the lane's functional result into ``out`` and returns its
    :class:`LaneRunResult`, with segmented reductions in place of a
    per-record loop. Each TSR and OSR sums its terms left to right in
    stream order, and drains scatter with the ordered, duplicate-safe
    ``np.add.at``.

    ``strict_kinds=False`` reproduces the event engine's decode instead,
    which treats any non-header, non-pad record as a nonzero.
    """
    kinds = np.asarray(kinds)
    live = kinds != KIND_PAD
    ck = kinds[live]
    ca = np.asarray(a_idx)[live]
    is_hdr = ck == KIND_HEADER
    hdr_cum = np.cumsum(is_hdr)
    if strict_kinds:
        is_nnz = ck == KIND_NNZ
        bad = ~(is_hdr | is_nnz) | (is_nnz & (hdr_cum == 0))
        if bad.any():
            i = int(np.argmax(bad))
            if ck[i] != KIND_NNZ:
                raise SimulationError(f"unknown record kind {int(ck[i])}")
            raise SimulationError("nonzero record before any header")
    else:
        is_nnz = ~is_hdr
        if is_nnz.any() and hdr_cum[np.argmax(is_nnz)] == 0:
            raise SimulationError("nonzero record before any header")
    headers = int(hdr_cum[-1]) if hdr_cum.size else 0
    hdr_slices = ca[is_hdr]
    nnz_pos = np.nonzero(is_nnz)[0]
    n = int(nnz_pos.size)
    fibers = drains = 0
    if n:
        nnz_seg = hdr_cum[nnz_pos]  # 1-based segment (header) index
        na = ca[nnz_pos]
        nv = np.asarray(vals)[live][nnz_pos]
        if costs.uses_fibers:
            nk = np.asarray(k_idx)[live][nnz_pos]
            # One fiber run per maximal (segment, j) stretch; the TSR
            # accumulates scaled rows sequentially within each run.
            new_run = _first_run_boundaries(nnz_seg, na)
            run_starts = np.nonzero(new_run)[0]
            run_ends = np.append(run_starts[1:], n)
            scaled = nv[:, None] * fiber0[nk]
            tsr = _segmented_sequential_sum(scaled, run_starts, run_ends)
            run_j = na[run_starts]
            run_seg = nnz_seg[run_starts]
            if costs.kernel in ("spttmc", "dttmc"):
                contrib = fiber1[run_j][:, :f1_tile, None] * tsr[:, None, :]
            else:
                contrib = fiber1[run_j] * tsr
            new_seg = _first_run_boundaries(run_seg)
            seg_starts = np.nonzero(new_seg)[0]
            seg_ends = np.append(seg_starts[1:], run_starts.size)
            osr = _segmented_sequential_sum(contrib, seg_starts, seg_ends)
            drain_slices = hdr_slices[run_seg[seg_starts] - 1]
            fibers = int(run_starts.size)
        else:
            # SpMM/SpMV: scalar * fiber0 accumulates straight into OSR.
            fb = fiber0[na]
            contrib = nv[:, None] * fb if fb.ndim > 1 else nv * fb
            new_seg = _first_run_boundaries(nnz_seg)
            seg_starts = np.nonzero(new_seg)[0]
            seg_ends = np.append(seg_starts[1:], n)
            osr = _segmented_sequential_sum(contrib, seg_starts, seg_ends)
            drain_slices = hdr_slices[nnz_seg[seg_starts] - 1]
        drains = int(seg_starts.size)
        np.add.at(out, drain_slices, osr)  # ordered, duplicate-safe scatter
    cycles = (
        costs.header_cycles * headers
        + costs.nnz_cycles * n
        + costs.fold_cycles * fibers
        + costs.drain_cycles * drains
    )
    return LaneRunResult(
        cycles=cycles,
        ops=costs.ops_per_nnz * n + costs.ops_per_fold * fibers,
        nnz_records=n,
        headers=headers,
        fibers=fibers,
        drains=drains,
    )


def lane_trace(
    costs: KernelCosts, kinds: np.ndarray, a_idx: np.ndarray
) -> List[Tuple[int, str, int]]:
    """The ``(cycle, event, detail)`` micro-events of one lane's stream.

    Every live record issues a ``header`` (detail: its slice) or a
    ``mac`` (detail: its ``a`` index). The last nonzero of a fiber run is
    followed by a ``fold`` (detail: the run's ``j``; fiber kernels only)
    and the last nonzero of a slice by a ``drain`` (detail: the slice).
    Each cycle stamp is the running cost total up to and including the
    event. Expects a stream :func:`lane_pass_arrays` has already
    validated.
    """
    kinds = np.asarray(kinds)
    live = kinds != KIND_PAD
    is_hdr = kinds[live] == KIND_HEADER
    ca = np.asarray(a_idx)[live]
    # One (record, code, detail) triple per event. The codes index
    # _EVENTS and put a record's issue before its fold before its drain.
    rec = [np.arange(is_hdr.size)]
    code = [np.where(is_hdr, 0, 1)]
    detail = [ca]
    nnz_pos = np.flatnonzero(~is_hdr)
    if nnz_pos.size:
        # A run of equal keys ends where the next one starts.
        seg = np.cumsum(is_hdr)[nnz_pos]
        seg_end = np.append(_first_run_boundaries(seg)[1:], True)
        if costs.uses_fibers:
            j = ca[nnz_pos]
            run_end = np.append(_first_run_boundaries(seg, j)[1:], True)
            rec.append(nnz_pos[run_end])
            code.append(np.full(int(run_end.sum()), 2))
            detail.append(j[run_end])
        rec.append(nnz_pos[seg_end])
        code.append(np.full(int(seg_end.sum()), 3))
        detail.append(ca[is_hdr][seg[seg_end] - 1])
    codes = np.concatenate(code)
    order = np.argsort(np.concatenate(rec) * 4 + codes)
    codes = codes[order]
    per_event = np.array(
        [costs.header_cycles, costs.nnz_cycles, costs.fold_cycles,
         costs.drain_cycles],
        dtype=np.int64,
    )
    return list(
        zip(
            np.cumsum(per_event[codes]).tolist(),
            [_EVENTS[c] for c in codes.tolist()],
            np.concatenate(detail)[order].tolist(),
        )
    )


@dataclass
class LaneRunResult:
    """Timing and activity of one lane's execution."""

    cycles: int
    ops: int
    nnz_records: int
    headers: int
    fibers: int
    drains: int


class PELane:
    """One PE row executing a CISS lane stream.

    Parameters
    ----------
    costs:
        Cost table from :func:`repro.sim.costs.kernel_costs`.
    fiber0:
        The SPM-resident fiber0 source (rows of C for MTTKRP/TTMc, rows of
        B for SpMM, the dense vector for SpMV).
    fiber1:
        The SPM-resident fiber1 source (rows of B) for MTTKRP/TTMc; None
        otherwise.
    f1_tile:
        TTMc only: how many fiber1 elements the OSR can hold (OLEN).
    """

    def __init__(
        self,
        costs: KernelCosts,
        fiber0: np.ndarray,
        fiber1: Optional[np.ndarray] = None,
        f1_tile: int = 0,
    ) -> None:
        self.costs = costs
        self.fiber0 = np.asarray(fiber0, dtype=np.float64)
        self.fiber1 = None if fiber1 is None else np.asarray(fiber1, dtype=np.float64)
        self.f1_tile = f1_tile
        if costs.uses_fibers and self.fiber1 is None:
            raise SimulationError(f"{costs.kernel} needs a fiber1 source")

    def run(
        self,
        records: Sequence[LaneRecord],
        out: np.ndarray,
        trace: Optional[list] = None,
    ) -> LaneRunResult:
        """Execute the lane stream, accumulating results into ``out``.

        ``out`` is indexed by slice/row id along axis 0 and must already
        have the output-tile shape (F for MTTKRP/SpMM, (F1, F2) for TTMc,
        scalar per row for SpMV). When ``trace`` is a list, one
        ``(cycle, event, detail)`` tuple is appended per micro-event
        (``header`` / ``mac`` / ``fold`` / ``drain``, see
        :func:`lane_trace`), giving a cycle-by-cycle view of the PE for
        debugging and the trace tests. An active micro-mode tracer
        (``Tracer(micro=True)``) collects the same events onto its sim
        track without the caller passing a list.
        """
        count = len(records)
        kinds = np.fromiter((rec.kind for rec in records), np.uint8, count=count)
        a_idx = np.fromiter((rec.a for rec in records), np.int64, count=count)
        k_idx = np.fromiter((rec.k for rec in records), np.int64, count=count)
        vals = np.fromiter((rec.val for rec in records), np.float64, count=count)
        return self._run(kinds, a_idx, k_idx, vals, out, trace)

    def run_stream(
        self,
        ciss,
        lane: int,
        out: np.ndarray,
        trace: Optional[list] = None,
    ) -> LaneRunResult:
        """Execute one lane of an encoded CISS stream.

        Feeds the stream's memoized
        :meth:`~repro.formats.ciss._CISSBase.lane_arrays` directly, so no
        :class:`LaneRecord` objects are built; ``trace`` works as in
        :meth:`run`.
        """
        return self._run(*ciss.lane_arrays(lane), out, trace)

    def _run(self, kinds, a_idx, k_idx, vals, out, trace) -> LaneRunResult:
        result = lane_pass_arrays(
            self.costs, self.fiber0, self.fiber1, self.f1_tile,
            kinds, a_idx, k_idx, vals, out,
        )
        tracer = obs.tracer()
        events = None
        if trace is not None or tracer.micro:
            events = lane_trace(self.costs, kinds, a_idx)
            if trace is not None:
                trace.extend(events)
        self._emit_obs(result, events if tracer.micro else None, tracer)
        return result

    def _emit_obs(self, result: LaneRunResult, micro_events, tracer) -> None:
        """Mirror one lane run into the active registry/tracer (post-run,
        so the record loop itself carries no instrumentation)."""
        reg = obs.metrics()
        if reg.enabled:
            reg.counter("pe.lane.runs", "PE lane stream executions").inc()
            reg.counter("pe.lane.cycles", "PE lane cycles").inc(result.cycles)
            reg.counter("pe.lane.ops", "PE lane MAC operations").inc(result.ops)
            events = reg.counter(
                "pe.lane.records", "PE lane activity by event", ("event",)
            )
            for event, count in (
                ("nnz", result.nnz_records),
                ("header", result.headers),
                ("fiber", result.fibers),
                ("drain", result.drains),
            ):
                if count:
                    events.labels(event=event).inc(count)
        if tracer.enabled and micro_events:
            for cycle, event, detail in micro_events:
                tracer.sim_instant(
                    f"pe.{event}", cycle, args={"detail": int(detail)}
                )
