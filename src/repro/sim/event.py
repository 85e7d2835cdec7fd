"""Event-driven microarchitecture simulator (the gem5-fidelity engine).

The vectorized engine (:mod:`repro.sim.lanes`) computes timing from record
counts; this module instead *advances clock cycles* through communicating
components, the way the paper's gem5 model does:

- a **TLU** that issues one CISS entry per cycle (bandwidth permitting)
  into per-lane record queues, stalling on back-pressure;
- per-lane **PE row** state machines that fetch fiber rows from the SPM,
  spend a MAC cycle per record, fold fibers into the OSR and drain slices;
- a banked **SPM arbiter** granting at most one request per bank per cycle
  (bank conflicts serialize *structurally*, not statistically);
- an **MSU** accepting one drain per cycle.

Because stalls emerge from component interaction rather than closed-form
counts, this engine is the fidelity reference: the test suite checks that
(a) its functional output equals the reference kernels, (b) in conflict-free
configurations its cycle count matches the analytical lane model exactly,
and (c) with conflicts it stays within a tight band of the vectorized
engine. It is intended for tiles up to ~100K nonzeros (it steps every
cycle in Python); the production engines handle the benchmark scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.formats.ciss import KIND_HEADER, KIND_PAD
from repro.sim.config import TensaurusConfig
from repro.sim.costs import KernelCosts
from repro.sim.faults import HBM_STALL, MAX_EVENTS_PER_RUN, FaultEvent, FaultPlan
from repro.sim.pe import lane_pass_arrays
from repro.util.errors import SimulationError


@dataclass
class EventSimResult:
    """Outcome of one event-driven tile execution."""

    cycles: int
    ops: int
    output: np.ndarray
    bank_conflict_stalls: int
    msu_stalls: int
    tlu_stall_cycles: int
    lane_busy_cycles: np.ndarray
    #: cycles the TLU sat idle on injected HBM channel stalls (fault layer).
    injected_stall_cycles: int = 0
    fault_events: List[FaultEvent] = field(default_factory=list)


# ----------------------------------------------------------------------
# Specialized timing loops. Each cycle the TLU pushes one entry into the
# lane queues (when every queue has room), idle rows dispatch their next
# record, an SPM bank grants one fetch per cycle (lowest lane first) and
# the MSU accepts one drain. The generator unrolls the lane loop into
# local variables (no per-cycle list subscripts), skips runs of cycles
# in which no lane can change state, and drops the fault/micro-trace
# branches when a run cannot take them. Compiled once per (lanes,
# fibers, stalls, micro) shape and cached for the process. Integer state
# codes: 0=IDLE 1=WF 2=MAC 3=WFF 4=FOLD 5=HEADER 6=DRAIN (WF/WFF =
# waiting on an SPM fetch/fold-fetch grant).
_TIMING_LOOP_CACHE: Dict[Tuple[int, bool, bool, bool], object] = {}


def _gen_timing_source(
    lanes: int, fibers: bool, stalls: bool, micro: bool
) -> str:
    lines: List[str] = []

    def w(level: int, text: str) -> None:
        lines.append("    " * level + text)

    R = range(lanes)

    def retire(level: int, i: int) -> None:
        # Architectural effects when lane i's multi-cycle state ends.
        if fibers:
            w(level, f"if st_{i} == 2:")
            w(level + 1, f"tsr_{i} = True")
            w(level, f"elif st_{i} == 4:")
            w(level + 1, f"osr_{i} = True")
            w(level + 1, f"tsr_{i} = False")
        else:
            w(level, f"if st_{i} == 2:")
            w(level + 1, f"osr_{i} = True")
        w(level, f"st_{i} = 0")

    full_chain = " or ".join(f"tail_{i} - head_{i} >= depth" for i in R)
    if fibers:
        done_chain = " and ".join(
            f"tail_{i} == head_{i} and st_{i} == 0"
            f" and not tsr_{i} and not osr_{i}"
            for i in R
        )
        inert = "(exhausted and (tsr_{i} or osr_{i}))"
    else:
        done_chain = " and ".join(
            f"tail_{i} == head_{i} and st_{i} == 0 and not osr_{i}"
            for i in R
        )
        inert = "(exhausted and osr_{i})"
    cbs = "".join(f"cb_{i}, " for i in R)

    w(0, "def _loop(pc_rows, lks, lss, lbs, stall_flags, entries, depth,")
    w(0, "          banks, nnz_c, fold_c, drain_c, header_c, stall_each,")
    w(0, "          max_cycles, kh, stall_events, micro_issues, max_events):")
    for i in R:
        w(1, f"lk_{i} = lks[{i}]")
        if fibers:
            w(1, f"ls_{i} = lss[{i}]")
        w(1, f"lb_{i} = lbs[{i}]")
        w(1, f"st_{i} = 0")
        w(1, f"busy_{i} = 0")
        if fibers:
            w(1, f"curj_{i} = -1")
            w(1, f"tsr_{i} = False")
        w(1, f"curb_{i} = 0")
        w(1, f"osr_{i} = False")
        w(1, f"head_{i} = 0")
        w(1, f"tail_{i} = 0")
        w(1, f"cb_{i} = 0")
    w(1, "claim = [-1] * banks")
    w(1, "exhausted = False")
    w(1, "next_entry = 0")
    if stalls:
        w(1, "stall_remaining = 0")
        w(1, "n_events = 0")
    w(1, "injected = 0")
    w(1, "bank_stalls = 0")
    w(1, "msu_stalls = 0")
    w(1, "tlu_stalls = 0")
    w(1, "cycle = 0")
    fail = (
        "return (0, cycle, bank_stalls, msu_stalls, tlu_stalls,"
        f" injected, ({cbs}))"
    )
    w(1, "while 1:")
    # --- Cycle skip gate: lane scan first (short-circuits on the first
    # dispatchable lane), then the TLU-blocked refinement.
    w(2, "delta = max_cycles + 1 - cycle")
    w(2, "while 1:")
    for i in R:
        w(3, f"if busy_{i} > 0:")
        w(4, f"if busy_{i} < delta:")
        w(5, f"delta = busy_{i}")
        w(3, f"elif st_{i} != 0 or tail_{i} != head_{i} or "
             + inert.format(i=i) + ":")
        w(4, "delta = 0")
        w(4, "break")
    w(3, "break")
    w(2, "if delta > 1:")
    w(3, "if next_entry < entries:")
    if stalls:
        w(4, "if stall_flags[next_entry]:")
        w(5, "delta = 0")
        w(4, "elif stall_remaining > 0:")
        w(5, "if stall_remaining < delta:")
        w(6, "delta = stall_remaining")
        w(4, f"elif not ({full_chain}):")
        w(5, "delta = 0")
    else:
        w(4, f"if not ({full_chain}):")
        w(5, "delta = 0")
    w(3, "elif not exhausted:")
    w(4, "delta = 0")
    w(2, "if delta > 1:")
    if stalls:
        w(3, "if stall_remaining > 0:")
        w(4, "stall_remaining -= delta")
        w(4, "injected += delta")
        w(3, "elif next_entry < entries:")
        w(4, "tlu_stalls += delta")
    else:
        w(3, "if next_entry < entries:")
        w(4, "tlu_stalls += delta")
    for i in R:
        w(3, f"if busy_{i} > 0:")
        w(4, f"cb_{i} += delta")
        w(4, f"if busy_{i} == delta:")
        retire(5, i)
        w(5, f"busy_{i} = 0")
        w(4, "else:")
        w(5, f"busy_{i} -= delta")
    w(3, "cycle += delta")
    w(3, f"if next_entry >= entries and exhausted and ({done_chain}):")
    w(4, "break")
    w(3, "if cycle > max_cycles:")
    w(4, fail)
    w(3, "continue")
    # --- TLU: push the next entry if every lane queue has space.
    w(2, "if next_entry < entries:")
    if stalls:
        w(3, "if stall_flags[next_entry]:")
        w(4, "stall_flags[next_entry] = False")
        w(4, "stall_remaining += stall_each")
        w(4, "if n_events < max_events:")
        w(5, "stall_events.append(next_entry)")
        w(5, "n_events += 1")
        w(3, "if stall_remaining > 0:")
        w(4, "stall_remaining -= 1")
        w(4, "injected += 1")
        w(3, f"elif {full_chain}:")
        w(4, "tlu_stalls += 1")
    else:
        w(3, f"if {full_chain}:")
        w(4, "tlu_stalls += 1")
    w(3, "else:")
    w(4, "row = pc_rows[next_entry]")
    for i in R:
        w(4, f"tail_{i} = row[{i}]")
    if micro:
        w(4, "micro_issues.append((cycle, next_entry))")
    w(4, "next_entry += 1")
    w(2, "else:")
    w(3, "exhausted = True")
    # --- Merged dispatch + arbitration + advance, one visit per lane.
    w(2, "msu_used = False")
    for i in R:
        w(2, f"b_ = busy_{i}")
        w(2, "if b_ > 0:")
        w(3, f"busy_{i} = b_ - 1")
        w(3, f"cb_{i} += 1")
        w(3, "if b_ == 1:")
        retire(4, i)
        w(2, "else:")
        w(3, f"st_ = st_{i}")
        w(3, "if st_ == 0:")
        w(4, f"h_ = head_{i}")
        w(4, f"if tail_{i} == h_:")
        w(5, "if not exhausted:")
        w(6, "st_ = -1")
        if fibers:
            w(5, f"elif tsr_{i}:")
            w(6, f"st_{i} = st_ = 3")
            w(5, f"elif osr_{i}:")
        else:
            w(5, f"elif osr_{i}:")
        w(6, f"st_{i} = st_ = 6")
        w(5, "else:")
        w(6, "st_ = -1")
        w(4, f"elif lk_{i}[h_] == kh:")
        if fibers:
            w(5, f"if tsr_{i}:")
            w(6, f"st_{i} = st_ = 3")
            w(5, f"elif osr_{i}:")
        else:
            w(5, f"if osr_{i}:")
        w(6, f"st_{i} = st_ = 6")
        w(5, "else:")
        w(6, f"head_{i} = h_ + 1")
        if fibers:
            w(6, f"curj_{i} = -1")
        w(6, f"cb_{i} += 1")
        w(6, "if header_c == 1:")
        w(7, f"st_{i} = 0")
        w(6, "else:")
        w(7, f"st_{i} = 5")
        w(7, f"busy_{i} = header_c - 1")
        w(6, "st_ = -1")
        w(4, "else:")
        if fibers:
            w(5, f"j_ = ls_{i}[h_]")
            w(5, f"if j_ != curj_{i} and tsr_{i}:")
            w(6, f"st_{i} = st_ = 3")
            w(5, "else:")
            w(6, f"curj_{i} = j_")
            w(6, f"head_{i} = h_ + 1")
            w(6, f"curb_{i} = lb_{i}[h_]")
            w(6, f"st_{i} = st_ = 1")
        else:
            w(5, f"head_{i} = h_ + 1")
            w(5, f"curb_{i} = lb_{i}[h_]")
            w(5, f"st_{i} = st_ = 1")
        w(3, "if st_ == 1:")
        w(4, f"bk_ = curb_{i}")
        w(4, "if claim[bk_] == cycle:")
        w(5, "bank_stalls += 1")
        w(4, "else:")
        w(5, "claim[bk_] = cycle")
        w(5, f"cb_{i} += 1")
        w(5, "if nnz_c == 1:")
        w(6, f"tsr_{i} = True" if fibers else f"osr_{i} = True")
        w(6, f"st_{i} = 0")
        w(5, "else:")
        w(6, f"st_{i} = 2")
        w(6, f"busy_{i} = nnz_c - 1")
        if fibers:
            w(3, "elif st_ == 3:")
            w(4, f"bk_ = curj_{i} % banks")
            w(4, "if claim[bk_] == cycle:")
            w(5, "bank_stalls += 1")
            w(4, "else:")
            w(5, "claim[bk_] = cycle")
            w(5, f"cb_{i} += 1")
            w(5, "if fold_c > 1:")
            w(6, f"st_{i} = 4")
            w(6, f"busy_{i} = fold_c - 1")
            w(5, "else:")
            w(6, f"osr_{i} = True")
            w(6, f"tsr_{i} = False")
            w(6, f"st_{i} = 0")
        w(3, "elif st_ == 6:")
        w(4, "if msu_used:")
        w(5, "msu_stalls += 1")
        w(4, "else:")
        w(5, "msu_used = True")
        w(5, f"osr_{i} = False")
        w(5, f"cb_{i} += 1")
        w(5, "if drain_c == 1:")
        w(6, f"st_{i} = 0")
        w(5, "else:")
        w(6, f"busy_{i} = drain_c - 1")
    w(2, "cycle += 1")
    w(2, f"if next_entry >= entries and exhausted and ({done_chain}):")
    w(3, "break")
    w(2, "if cycle > max_cycles:")
    w(3, fail)
    w(1, "return (1, cycle, bank_stalls, msu_stalls, tlu_stalls,"
         f" injected, ({cbs}))")
    return "\n".join(lines) + "\n"


def _timing_loop(lanes: int, fibers: bool, stalls: bool, micro: bool):
    """The compiled timing loop for this run shape (memoized)."""
    key = (lanes, fibers, stalls, micro)
    fn = _TIMING_LOOP_CACHE.get(key)
    if fn is None:
        src = _gen_timing_source(lanes, fibers, stalls, micro)
        ns: Dict[str, object] = {}
        exec(compile(src, f"<event-timing-{lanes}l>", "exec"), ns)
        fn = ns["_loop"]
        _TIMING_LOOP_CACHE[key] = fn
    return fn


class EventDrivenTensaurus:
    """Cycle-stepped model of the PE array executing one CISS tile.

    Parameters mirror the vectorized engine: a cost table, the dense
    operand sources, and the OSR depth for TTMc. An optional ``fault_plan``
    injects deterministic HBM channel stalls *structurally*: a stalled
    entry holds the TLU for ``hbm_stall_cycles`` before it issues, and the
    back-pressure ripples through the lane queues the same way a real
    wedged channel would. Functional output is never perturbed.
    """

    def __init__(
        self,
        config: TensaurusConfig,
        costs: KernelCosts,
        fiber0: np.ndarray,
        fiber1: Optional[np.ndarray] = None,
        f1_tile: int = 0,
        queue_depth: int = 4,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        self.costs = costs
        self.fiber0 = np.asarray(fiber0, dtype=np.float64)
        self.fiber1 = None if fiber1 is None else np.asarray(fiber1, dtype=np.float64)
        self.f1_tile = f1_tile
        self.queue_depth = queue_depth
        self.fault_plan = fault_plan
        if costs.uses_fibers and self.fiber1 is None:
            raise SimulationError(f"{costs.kernel} needs a fiber1 source")

    # ------------------------------------------------------------------
    def run(self, ciss, out_shape: Tuple[int, ...]) -> EventSimResult:
        """Execute a CISS tile (any object exposing kinds/a_idx/k_idx/vals
        planes) to completion.

        The cycle loop steps plain integers (records never become Python
        objects, record arithmetic never enters the clock loop); the
        functional output comes from the vectorized PE pass. Lanes drain
        concurrently, so each output slice must be headed on one lane
        only (the CISS deal guarantees it) and a stream with entries must
        have lanes; anything else raises :class:`SimulationError`.
        """
        kinds = np.asarray(ciss.kinds)
        a_idx = np.asarray(ciss.a_idx)
        k_idx = np.asarray(ciss.k_idx)
        vals = np.asarray(ciss.vals)
        entries, lanes = kinds.shape if kinds.ndim == 2 else (0, 0)
        costs = self.costs
        tracer = obs.tracer()
        out = np.zeros(out_shape, dtype=np.float64)
        if entries == 0:
            result = EventSimResult(
                cycles=0, ops=0, output=out, bank_conflict_stalls=0,
                msu_stalls=0, tlu_stall_cycles=0,
                lane_busy_cycles=np.zeros(lanes, dtype=np.int64),
            )
            self._emit_obs(result, entries, [] if tracer.micro else None, tracer)
            return result
        if lanes == 0:
            raise SimulationError(
                f"stream has {entries} entries but no lanes to run them"
            )

        # The functional scatter is order-free only when no two lanes own
        # the same output slice.
        hdr_r, hdr_l = np.nonzero(kinds == KIND_HEADER)
        if hdr_r.size:
            hdr_s = a_idx[hdr_r, hdr_l]
            order = np.lexsort((hdr_l, hdr_s))
            s_sorted = hdr_s[order]
            l_sorted = hdr_l[order]
            shared = (s_sorted[1:] == s_sorted[:-1]) & (
                l_sorted[1:] != l_sorted[:-1]
            )
            if shared.any():
                i = int(np.argmax(shared))
                raise SimulationError(
                    f"output slice {int(s_sorted[i])} is headed on lanes "
                    f"{int(l_sorted[i])} and {int(l_sorted[i + 1])}; each "
                    "slice must belong to one lane"
                )

        # Functional output + per-lane op counting (vectorized; event
        # decode treats any non-header record as a nonzero).
        ops = 0
        lane_cols = []
        for lane in range(lanes):
            if hasattr(ciss, "lane_arrays"):
                lk, la, lkk, lv = ciss.lane_arrays(lane)
            else:
                lk = kinds[:, lane]
                la = a_idx[:, lane]
                lkk = k_idx[:, lane]
                lv = vals[:, lane]
            lane_cols.append((lk, la))
            ops += lane_pass_arrays(
                costs, self.fiber0, self.fiber1, self.f1_tile,
                lk, la, lkk, lv, out, strict_kinds=False,
            ).ops

        max_cycles = 1000 + self._cycle_budget(kinds)
        plan = self.fault_plan
        stall_arr = None
        stall_cycles_each = 0
        if plan is not None and plan.hbm_stall_rate > 0:
            stall_arr = (
                plan.uniforms(entries, "event-hbm", entries)
                < plan.hbm_stall_rate
            )
            stall_cycles_each = plan.hbm_stall_cycles
            max_cycles += int(stall_arr.sum()) * stall_cycles_each
        fault_events: List[FaultEvent] = []
        micro_issues: Optional[List[Tuple[int, int]]] = (
            [] if tracer.micro else None
        )

        # Per-lane compacted record columns, plus the per-entry
        # pushed-count prefix sums the TLU advances through.
        live = kinds != KIND_PAD
        pc = np.cumsum(live, axis=0)
        banks = self.config.spm_banks
        uses_fibers = costs.uses_fibers
        col_k: List[np.ndarray] = []
        col_s: List[np.ndarray] = []
        col_b: List[np.ndarray] = []
        for lane in range(lanes):
            lk, la = lane_cols[lane]
            mask = live[:, lane]
            ck = lk[mask]
            ca = la[mask]
            key = k_idx[:, lane][mask] if costs.bank_key == "k" else ca
            col_k.append(ck.astype(np.int64))
            col_s.append(ca.astype(np.int64))
            col_b.append(key.astype(np.int64) % banks)

        stall_flags = None if stall_arr is None else stall_arr.tolist()
        loop = _timing_loop(
            lanes,
            bool(uses_fibers),
            stall_flags is not None,
            micro_issues is not None,
        )
        stall_entries: List[int] = []
        ok, cycle, bank_stalls, msu_stalls, tlu_stalls, injected, cbs = loop(
            pc.tolist(),
            [c.tolist() for c in col_k],
            [c.tolist() for c in col_s],
            [c.tolist() for c in col_b],
            stall_flags,
            entries,
            self.queue_depth,
            banks,
            costs.nnz_cycles,
            costs.fold_cycles,
            costs.drain_cycles,
            costs.header_cycles,
            stall_cycles_each,
            max_cycles,
            KIND_HEADER,
            stall_entries,
            micro_issues,
            MAX_EVENTS_PER_RUN,
        )
        if not ok:
            raise SimulationError(
                f"event simulation did not converge in {max_cycles} cycles"
            )
        for e in stall_entries:
            fault_events.append(FaultEvent(HBM_STALL, ("entry", int(e))))
        cycles_busy = list(cbs)

        result = EventSimResult(
            cycles=cycle,
            ops=ops,
            output=out,
            bank_conflict_stalls=bank_stalls,
            msu_stalls=msu_stalls,
            tlu_stall_cycles=tlu_stalls,
            lane_busy_cycles=np.array(cycles_busy, dtype=np.int64),
            injected_stall_cycles=injected,
            fault_events=fault_events,
        )
        self._emit_obs(result, entries, micro_issues, tracer)
        return result

    def _emit_obs(
        self,
        result: EventSimResult,
        entries: int,
        micro_issues: Optional[List[Tuple[int, int]]],
        tracer,
    ) -> None:
        """Mirror one tile execution into the active tracer/registry.

        Runs after the cycle loop so the loop itself is untouched; with a
        micro-mode tracer every CISS-entry issue becomes a sim-track
        instant at its issue cycle."""
        reg = obs.metrics()
        if reg.enabled:
            reg.counter("event.tiles", "event-engine tile executions").inc()
            reg.counter("event.cycles", "event-engine cycles").inc(result.cycles)
            stalls = reg.counter(
                "event.stall_cycles", "event-engine stalls by cause", ("cause",)
            )
            for cause, count in (
                ("bank_conflict", result.bank_conflict_stalls),
                ("msu", result.msu_stalls),
                ("tlu", result.tlu_stall_cycles),
                ("injected_hbm", result.injected_stall_cycles),
            ):
                if count:
                    stalls.labels(cause=cause).inc(count)
        if tracer.enabled:
            if micro_issues:
                # Before add_launch, so issue cycles land inside the
                # not-yet-advanced launch span.
                for at_cycle, entry in micro_issues:
                    tracer.sim_instant(
                        "ciss.entry", at_cycle, args={"entry": entry}
                    )
            tracer.add_launch(
                f"event.{self.costs.kernel}", result.cycles,
                args={"entries": entries, "ops": result.ops},
            )

    # ------------------------------------------------------------------
    def _cycle_budget(self, kinds: np.ndarray) -> int:
        """Generous convergence bound: every record fully serialized."""
        per_record = (
            self.costs.nnz_cycles
            + self.costs.fold_cycles
            + self.costs.drain_cycles
            + self.costs.header_cycles
            + 4
        )
        return int(kinds.size) * per_record + 64
