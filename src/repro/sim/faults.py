"""Deterministic fault injection for the Tensaurus simulator stack.

A :class:`FaultPlan` is a seeded description of the hardware faults one
wants the simulated accelerator to suffer: SPM bit-flips per tile, HBM
channel stalls and outages, PE-lane dropouts, host-visible launch aborts
and (for :mod:`repro.sim.multichip`) whole-chip failures. Every draw is
keyed by ``(kernel, run index, retry epoch, fault class)``: a launch's
abort and each lane's dropout are single :func:`repro.util.rng.uniform`
draws on that label path, and the per-tile SPM and HBM draws come from a
:func:`repro.util.rng.derive_seed` stream on it. So the same plan replayed
against the same workload yields the *same* fault timeline — across runs,
and whether ``sweep_configs`` evaluates a point in-process or in a pool
worker.

Detection and recovery are costed, not hand-waved:

- when ``spm_bitflip_rate > 0`` every SPM tile pays ``checksum_cycles`` of
  detection overhead (the ECC/checksum verify), and a corrupted tile whose
  flip is detected (``detection_coverage``) is **replayed**: its compute
  and memory time is charged again, its tensor/matrix streams are
  re-fetched, plus a fixed re-dispatch penalty;
- an HBM stall adds ``hbm_stall_cycles`` to the tile's memory phase; an
  outage takes one of ``hbm_channels`` channels away for that tile;
- a PE-lane dropout removes the lane before the CISS deal, so the existing
  least-loaded scheduler redistributes its groups over the surviving lanes
  — graceful degradation at reduced lane count, with the CISS entry width
  shrinking to match;
- undetected flips are counted as ``silent_corruptions`` (the functional
  output of the simulator comes from the reference kernels and is not
  perturbed — this layer models the *timing and accounting* of recovery).

When every rate is 0.0 and no forced faults are listed the plan is
disabled and the simulator takes its exact pre-fault arithmetic path, so
reports are bit-identical to a run with no plan at all (asserted by the
test suite).

A launch answered from a cached fault-free report
(:meth:`repro.sim.Tensaurus.replay`) still draws its faults:
:meth:`FaultState.replay_run` walks the same abort and lane-dropout
streams and declines whenever the live run would fault, so memoized
callers see the fault timeline of a fully live run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.errors import ConfigError, FaultError
from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng, uniform

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "RunFaultContext",
    "TileFaultOutcome",
]

#: Fault event kinds.
SPM_BITFLIP = "spm_bitflip"
HBM_STALL = "hbm_stall"
HBM_OUTAGE = "hbm_outage"
LANE_DROPOUT = "lane_dropout"
LAUNCH_ABORT = "launch_abort"
CHIP_FAILURE = "chip_failure"
WATCHDOG = "watchdog"
SHARD_KILL = "shard_kill"

#: Per-run cap on individually recorded events (counters stay exact).
MAX_EVENTS_PER_RUN = 128


@dataclass(frozen=True)
class FaultEvent:
    """One injected or detected fault, as surfaced on reports/timelines."""

    kind: str  # one of the module-level kind constants
    location: Tuple[object, ...]  # e.g. ("tile", 12), ("lane", 3), ("chip", 0)
    detected: bool = True
    info: str = ""

    def __repr__(self) -> str:  # compact: these appear in rendered tables
        loc = ":".join(str(x) for x in self.location)
        flag = "" if self.detected else " silent"
        return f"FaultEvent({self.kind}@{loc}{flag})"


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative fault-injection configuration.

    All rates are probabilities in ``[0, 1]``; the unit of each draw is
    given per field. ``forced_lane_drops`` / ``forced_chip_failures`` name
    specific lanes/chips that fail deterministically regardless of rate —
    convenient for tests and the degraded-throughput benchmark.
    """

    seed: int = DEFAULT_SEED
    #: probability an SPM tile suffers a bit-flip (per tile per pass).
    spm_bitflip_rate: float = 0.0
    #: fraction of flips the checksum/ECC detects (detected flips replay).
    detection_coverage: float = 1.0
    #: detection cost charged to every tile while bit-flips are modeled.
    checksum_cycles: int = 4
    #: fixed re-dispatch cost on a tile replay, on top of the re-execution.
    replay_penalty_cycles: int = 32
    #: probability a tile's memory phase hits a wedged HBM channel.
    hbm_stall_rate: float = 0.0
    hbm_stall_cycles: int = 200
    #: probability a tile sees a whole-channel outage (bandwidth degrades).
    hbm_outage_rate: float = 0.0
    hbm_channels: int = 8
    #: probability each PE lane drops out for the duration of one run.
    pe_lane_dropout_rate: float = 0.0
    forced_lane_drops: Tuple[int, ...] = ()
    #: probability a kernel launch aborts with a host-visible FaultError.
    launch_abort_rate: float = 0.0
    #: probability a chip fails for the duration of one multichip run.
    chip_failure_rate: float = 0.0
    forced_chip_failures: Tuple[int, ...] = ()
    #: probability each serving-fleet shard is killed during one trace
    #: (fleet-level: consumed by repro.serving.fleet, never by the
    #: accelerator itself, so arming it leaves single-chip runs
    #: bit-identical).
    shard_kill_rate: float = 0.0
    #: forced ``(shard, time_fraction)`` kills: shard ids paired with the
    #: fraction of the trace horizon at which each dies.
    forced_shard_kills: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for attr in (
            "spm_bitflip_rate", "detection_coverage", "hbm_stall_rate",
            "hbm_outage_rate", "pe_lane_dropout_rate", "launch_abort_rate",
            "chip_failure_rate", "shard_kill_rate",
        ):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{attr} must be in [0, 1], got {value!r}")
        for attr in ("checksum_cycles", "replay_penalty_cycles",
                     "hbm_stall_cycles"):
            if getattr(self, attr) < 0:
                raise ConfigError(f"{attr} must be >= 0")
        if self.hbm_channels < 2:
            raise ConfigError("hbm_channels must be >= 2 (outage leaves one)")
        object.__setattr__(
            self, "forced_lane_drops", tuple(int(x) for x in self.forced_lane_drops)
        )
        object.__setattr__(
            self, "forced_chip_failures",
            tuple(int(x) for x in self.forced_chip_failures),
        )
        kills = tuple(
            (int(s), float(f)) for s, f in self.forced_shard_kills
        )
        for s, f in kills:
            if s < 0:
                raise ConfigError("forced shard ids must be >= 0")
            if not 0.0 <= f <= 1.0:
                raise ConfigError(
                    f"shard kill time fraction must be in [0, 1], got {f!r}"
                )
        object.__setattr__(self, "forced_shard_kills", kills)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False iff the plan can never inject *accelerator-level* faults.

        Fleet-level shard kills are deliberately excluded (see
        :attr:`shard_kills_armed`): a shard-kill-only plan leaves every
        simulator launch bit-identical to running with no plan at all.
        """
        return bool(
            self.spm_bitflip_rate > 0
            or self.hbm_stall_rate > 0
            or self.hbm_outage_rate > 0
            or self.pe_lane_dropout_rate > 0
            or self.launch_abort_rate > 0
            or self.chip_failure_rate > 0
            or self.forced_lane_drops
            or self.forced_chip_failures
        )

    @property
    def models_spm_faults(self) -> bool:
        """True when SPM protection (checksum + replay) is being costed."""
        return self.spm_bitflip_rate > 0

    def uniforms(self, n: int, *labels: object) -> np.ndarray:
        """``n`` deterministic uniforms on the stream named by ``labels``."""
        rng = make_rng(derive_seed(self.seed, "fault", *labels))
        return rng.random(n)

    def chip_failures(self, num_chips: int, run_index: int) -> List[int]:
        """Chips that fail for one multichip run (sorted, deterministic)."""
        failed = set(c for c in self.forced_chip_failures if c < num_chips)
        if self.chip_failure_rate > 0:
            u = self.uniforms(num_chips, "chip", run_index)
            failed.update(np.flatnonzero(u < self.chip_failure_rate).tolist())
        return sorted(int(c) for c in failed)

    # ------------------------------------------------------------------
    # Fleet-level faults (consumed by repro.serving.fleet). These knobs
    # deliberately do NOT participate in :attr:`enabled` — a plan that
    # only kills shards must not arm the accelerator-level fault
    # machinery, which would perturb per-launch accounting.
    # ------------------------------------------------------------------
    @property
    def shard_kills_armed(self) -> bool:
        """True when the plan can kill serving-fleet shards."""
        return self.shard_kill_rate > 0 or bool(self.forced_shard_kills)

    def shard_kills(
        self, num_shards: int, horizon_s: float, run_index: int = 0
    ) -> List[Tuple[int, float]]:
        """``(shard, kill_time_s)`` pairs for one fleet trace.

        Forced kills fire at their configured fraction of ``horizon_s``;
        rate-drawn kills pick a seeded uniform kill time over the
        horizon. Sorted by (time, shard) — the order the fleet's event
        loop consumes them — and deterministic per (seed, run_index).
        """
        kills = {
            s: f * float(horizon_s)
            for s, f in self.forced_shard_kills
            if s < num_shards
        }
        if self.shard_kill_rate > 0:
            u = self.uniforms(num_shards, "shard", run_index)
            t = self.uniforms(num_shards, "shard-time", run_index)
            for s in np.flatnonzero(u < self.shard_kill_rate).tolist():
                kills.setdefault(int(s), float(t[s]) * float(horizon_s))
        return sorted(kills.items(), key=lambda kv: (kv[1], kv[0]))


@dataclass
class TileFaultOutcome:
    """Adjusted schedule totals after applying per-tile faults."""

    cycles: int
    extra_tensor_bytes: int
    extra_matrix_bytes: int


class RunFaultContext:
    """Fault draws, accounting and events for one kernel execution.

    Created by :meth:`FaultState.begin_run`; the accelerator asks it (in
    order) whether the launch aborts, how many lanes survive, and what the
    per-tile fault adjustment to the tile schedule is. Counters accumulate
    here and are folded into ``SimReport.faults`` by ``finish``.
    """

    def __init__(self, plan: FaultPlan, kernel: str, run_index: int, epoch: int) -> None:
        self.plan = plan
        self.kernel = kernel
        self.run_index = run_index
        self.epoch = epoch
        self.counters: Dict[str, int] = {}
        self.structural: Dict[str, int] = {}
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def _draw(self, n: int, label: str) -> np.ndarray:
        return self.plan.uniforms(
            n, self.kernel, self.run_index, self.epoch, label
        )

    def _uniform(self, *labels: object) -> float:
        """One keyed uniform on this run's label path."""
        return uniform(
            self.plan.seed, "fault", self.kernel, self.run_index, self.epoch,
            *labels,
        )

    def _count(self, key: str, amount: int) -> None:
        if amount:
            self.counters[key] = self.counters.get(key, 0) + int(amount)

    def _event(self, kind: str, location: Tuple[object, ...],
               detected: bool = True, info: str = "") -> None:
        if len(self.events) < MAX_EVENTS_PER_RUN:
            self.events.append(FaultEvent(kind, location, detected, info))

    # ------------------------------------------------------------------
    def aborts(self) -> bool:
        """Whether this launch is drawn to abort (records nothing)."""
        rate = self.plan.launch_abort_rate
        return rate > 0 and self._uniform("abort") < rate

    def check_launch_abort(self) -> None:
        """Raise :class:`FaultError` when this launch is drawn to abort."""
        if self.aborts():
            self._event(LAUNCH_ABORT, ("run", self.run_index))
            raise FaultError(
                f"injected launch abort (kernel={self.kernel}, "
                f"run={self.run_index}, epoch={self.epoch})"
            )

    def active_lanes(self, rows: int) -> int:
        """Surviving PE lanes for this run (at least one always survives)."""
        plan = self.plan
        dropped = set(l for l in plan.forced_lane_drops if 0 <= l < rows)
        if plan.pe_lane_dropout_rate > 0:
            dropped.update(
                lane for lane in range(rows)
                if self._uniform("lane", lane) < plan.pe_lane_dropout_rate
            )
        if len(dropped) >= rows:  # keep the machine minimally alive
            dropped = set(sorted(dropped)[: rows - 1])
        for lane in sorted(dropped):
            self._event(LANE_DROPOUT, ("lane", int(lane)))
        lanes = rows - len(dropped)
        self.structural["lanes_dropped"] = len(dropped)
        self.structural["active_lanes"] = lanes
        return lanes

    # ------------------------------------------------------------------
    def apply_tile_faults(
        self,
        compute_cycles: np.ndarray,
        t_bytes: np.ndarray,
        m_bytes: np.ndarray,
        o_bytes: np.ndarray,
        bytes_per_cycle: float,
        tile_overhead: int,
    ) -> TileFaultOutcome:
        """Fault-adjusted schedule total over per-tile cost arrays.

        The clean per-tile cost is ``max(compute, ceil(bytes/bpc)) +
        overhead``; this reproduces that arithmetic, overlays checksum
        cycles, stall/outage memory penalties and detected-flip replays,
        and records the itemized overhead counters. All inputs are
        length-``num_tiles`` arrays (int64 for cycles/bytes).
        """
        plan = self.plan
        compute_cycles = np.asarray(compute_cycles, dtype=np.int64)
        t_bytes = np.asarray(t_bytes, dtype=np.int64)
        m_bytes = np.asarray(m_bytes, dtype=np.int64)
        o_bytes = np.asarray(o_bytes, dtype=np.int64)
        n = int(compute_cycles.shape[0])
        total_bytes = t_bytes + m_bytes + o_bytes
        clean_mem = np.ceil(total_bytes / bytes_per_cycle).astype(np.int64)
        clean_tiles = np.maximum(compute_cycles, clean_mem) + tile_overhead
        clean_total = int(clean_tiles.sum())
        if n == 0:
            return TileFaultOutcome(0, 0, 0)

        # --- SPM protection: checksum verify on every tile, replay on a
        # detected flip.
        compute_f = compute_cycles
        flips = np.zeros(n, dtype=bool)
        detected = np.zeros(n, dtype=bool)
        if plan.models_spm_faults:
            compute_f = compute_cycles + plan.checksum_cycles
            self._count("checksum_cycles", n * plan.checksum_cycles)
            flips = self._draw(n, "spm-flip") < plan.spm_bitflip_rate
            if plan.detection_coverage >= 1.0:
                detected = flips
            else:
                detected = flips & (
                    self._draw(n, "spm-detect") < plan.detection_coverage
                )
            self._count("spm_bitflips", int(flips.sum()))
            self._count("detected_bitflips", int(detected.sum()))
            self._count("silent_corruptions", int((flips & ~detected).sum()))
            for g in np.flatnonzero(flips):
                self._event(SPM_BITFLIP, ("tile", int(g)), bool(detected[g]))

        # --- HBM faults: stalls lengthen the memory phase, outages take a
        # channel away for the affected tile.
        mem_f = clean_mem
        if plan.hbm_outage_rate > 0:
            outages = self._draw(n, "hbm-outage") < plan.hbm_outage_rate
            degraded = bytes_per_cycle * (plan.hbm_channels - 1) / plan.hbm_channels
            mem_f = np.where(
                outages,
                np.ceil(total_bytes / degraded).astype(np.int64),
                mem_f,
            )
            self._count("hbm_outages", int(outages.sum()))
            for g in np.flatnonzero(outages):
                self._event(HBM_OUTAGE, ("tile", int(g)))
        if plan.hbm_stall_rate > 0:
            stalls = self._draw(n, "hbm-stall") < plan.hbm_stall_rate
            mem_f = mem_f + stalls * plan.hbm_stall_cycles
            self._count("hbm_stalls", int(stalls.sum()))
            self._count("hbm_stall_cycles", int(stalls.sum()) * plan.hbm_stall_cycles)
            for g in np.flatnonzero(stalls):
                self._event(HBM_STALL, ("tile", int(g)))

        tiles = np.maximum(compute_f, mem_f) + tile_overhead
        replay = detected * (tiles + plan.replay_penalty_cycles)
        total = int((tiles + replay).sum())
        self._count("tile_replays", int(detected.sum()))
        self._count("replay_cycles", int(replay.sum()))
        self._count("fault_overhead_cycles", total - clean_total)
        return TileFaultOutcome(
            cycles=total,
            extra_tensor_bytes=int((detected * t_bytes).sum()),
            extra_matrix_bytes=int((detected * m_bytes).sum()),
        )

    # ------------------------------------------------------------------
    def finish(self, passes: int = 1) -> Dict[str, int]:
        """The ``SimReport.faults`` mapping: per-pass counters scaled by
        the pass count plus the structural (unscaled) entries."""
        out = {k: int(v) * int(passes) for k, v in self.counters.items()}
        out.update(self.structural)
        return out


class FaultState:
    """Per-accelerator fault bookkeeping: run counter and retry epoch.

    The run counter makes successive kernel invocations (the three MTTKRPs
    of a CP-ALS sweep, say) draw from distinct but reproducible streams;
    the epoch is bumped by host-side recovery (driver RESET-retry,
    checkpoint resume, sweep re-attempts) so a retried launch does not
    deterministically re-suffer the identical fault.
    """

    def __init__(self, plan: Optional[FaultPlan], epoch: int = 0) -> None:
        self.plan = plan
        self.epoch = int(epoch)
        self.runs = 0

    @property
    def enabled(self) -> bool:
        return self.plan is not None and self.plan.enabled

    def advance_epoch(self) -> None:
        self.epoch += 1

    def begin_run(self, kernel: str) -> Optional[RunFaultContext]:
        """A fresh per-run context, or ``None`` when injection is off."""
        if not self.enabled:
            return None
        ctx = RunFaultContext(self.plan, kernel, self.runs, self.epoch)
        self.runs += 1
        return ctx

    @property
    def replayable(self) -> bool:
        """False when the plan draws faults per tile (SPM flips, HBM
        stalls or outages): those draws need the launch's tile schedule,
        so no launch can be answered from a cached report."""
        plan = self.plan
        return plan is None or not (
            plan.spm_bitflip_rate > 0
            or plan.hbm_stall_rate > 0
            or plan.hbm_outage_rate > 0
        )

    def replay_run(self, kernel: str, rows: int) -> Optional[Dict[str, int]]:
        """Account for one launch answered from a fault-free cached report.

        Draws the launch's abort and lane-dropout faults from the same
        ``(kernel, run index, epoch)`` stream :meth:`begin_run` gives a
        live run. A clean launch consumes its run slot and gets back the
        ``SimReport.faults`` mapping the live run would report. ``None``
        means the launch would draw a fault, or the plan is not
        :attr:`replayable`; the slot is left for the live run the caller
        must then make, which redraws the identical faults.
        """
        if not self.enabled:
            return {}
        if not self.replayable:
            return None
        ctx = RunFaultContext(self.plan, kernel, self.runs, self.epoch)
        if ctx.aborts() or ctx.active_lanes(rows) < rows:
            return None
        self.runs += 1
        return ctx.finish()
