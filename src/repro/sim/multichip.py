"""Multi-chip scaling model: partitioned tensor kernels across accelerators.

A natural extension beyond the paper's single-chip evaluation: the output
mode of MTTKRP/TTMc partitions cleanly (different output slices never
interact), so C chips can each run the kernel over a subset of slices.
This module partitions slices with the same least-loaded heuristic CISS
uses for lanes, simulates every chip independently, and reports makespan
and scaling efficiency — quantifying how load skew and the per-chip tiling
overheads erode ideal linear scaling.

The dense operand matrices are replicated to every chip (each holds its
own SPM-tiled copy stream), matching how slice-parallel SPLATT distributes
MTTKRP; no inter-chip communication is needed until the factor update,
which is the host's job.

Fault tolerance: an armed :class:`~repro.sim.faults.FaultPlan` can fail
whole chips (``chip_failure_rate`` / ``forced_chip_failures``), or a chip
may abort at launch. The farm then re-deals the dead chips' slices over
the survivors with the same least-loaded heuristic — seeded with each
survivor's primary load, so recovery work lands on the lightest chips —
and runs a recovery round. The makespan is primary round + recovery round
(the failure is only observed when the round completes), which is exactly
the degradation a slice-parallel system with detection-at-barrier pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.faults import CHIP_FAILURE, FaultEvent, FaultPlan
from repro.sim.report import SimReport
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError, FaultError, KernelError


@dataclass
class ChipAssignment:
    """The slices one chip owns and its simulated execution."""

    chip: int
    slices: np.ndarray  # global slice indices along the target mode
    nnz: int
    report: Optional[SimReport] = None
    failed: bool = False


@dataclass
class MultiChipResult:
    """Outcome of a partitioned kernel execution.

    ``assignments`` is the primary round; when chips failed,
    ``failed_chips`` names them, ``fault_events`` records the failures and
    ``recovery`` holds the surviving chips' re-deal round covering the dead
    chips' slices.
    """

    assignments: List[ChipAssignment]
    mode: int
    failed_chips: List[int] = field(default_factory=list)
    recovery: List[ChipAssignment] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)

    @property
    def num_chips(self) -> int:
        return len(self.assignments)

    @property
    def primary_span_s(self) -> float:
        """Completion time of the primary round (slowest surviving chip)."""
        return max(
            (a.report.time_s for a in self.assignments if a.report),
            default=0.0,
        )

    @property
    def recovery_span_s(self) -> float:
        """Completion time of the recovery round (0 with no failures)."""
        return max(
            (a.report.time_s for a in self.recovery if a.report), default=0.0
        )

    @property
    def makespan_s(self) -> float:
        """Parallel completion time: primary round, then (after the failure
        is observed at the barrier) the recovery round."""
        return self.primary_span_s + self.recovery_span_s

    @property
    def total_chip_seconds(self) -> float:
        return sum(
            a.report.time_s for a in self.assignments + self.recovery if a.report
        )

    @property
    def scaling_efficiency(self) -> float:
        """(sum of chip work) / (chips * makespan): 1.0 is perfect balance."""
        span = self.makespan_s
        if span <= 0:
            return 1.0
        return self.total_chip_seconds / (self.num_chips * span)

    @property
    def total_ops(self) -> int:
        return sum(
            a.report.ops for a in self.assignments + self.recovery if a.report
        )

    def combined_output(self, out_shape) -> np.ndarray:
        """Assemble the global output from the per-chip partial outputs
        (failed chips' slices come from the recovery round)."""
        out = np.zeros(out_shape, dtype=np.float64)
        for a in self.assignments + self.recovery:
            if a.failed or a.slices.size == 0:
                continue
            if a.report is None or a.report.output is None:
                raise KernelError("run with compute_output=True to combine")
            out[a.slices] = a.report.output[a.slices]
        return out


def partition_slices(
    tensor: SparseTensor, mode: int, num_chips: int
) -> List[np.ndarray]:
    """Deal nonempty slices to chips, least-loaded-first (by nonzeros)."""
    if num_chips <= 0:
        raise ConfigError("num_chips must be positive")
    counts = tensor.slice_nnz_counts(mode)
    nonempty = np.flatnonzero(counts)
    # Heaviest first gives the classic LPT bound on imbalance.
    order = nonempty[np.argsort(counts[nonempty])[::-1]]
    loads = np.zeros(num_chips, dtype=np.int64)
    owner = {}
    for s in order:
        chip = int(np.argmin(loads))
        loads[chip] += counts[s]
        owner[int(s)] = chip
    return [
        np.array(sorted(s for s, c in owner.items() if c == chip), dtype=np.int64)
        for chip in range(num_chips)
    ]


def least_loaded_redeal(
    ordered_items: List,
    weights,
    survivors: List[int],
    survivor_loads: dict,
) -> dict:
    """Deal orphaned work items over survivors, least-loaded-first.

    The generic core of the chip-failure recovery re-deal, shared with
    the serving fleet's cross-shard failover
    (:mod:`repro.serving.fleet`): walk ``ordered_items`` (callers pass
    them heaviest-first for the LPT bound) and hand each to the survivor
    with the smallest running load, seeding loads with
    ``survivor_loads`` so recovery work lands on the members that have
    the least left to do. ``weights`` is any ``weights[item]`` mapping
    (dict or array). Ties break on the lowest survivor id, which keeps
    the deal deterministic. Returns ``{survivor: [items in deal
    order]}``.
    """
    loads = {c: int(survivor_loads.get(c, 0)) for c in survivors}
    assigned: dict = {c: [] for c in survivors}
    for item in ordered_items:
        chip = min(survivors, key=lambda c: (loads[c], c))
        loads[chip] += int(weights[item])
        assigned[chip].append(item)
    return assigned


def _redistribute_slices(
    tensor: SparseTensor,
    mode: int,
    orphan_slices: np.ndarray,
    survivors: List[int],
    survivor_loads: dict,
) -> dict:
    """Deal the failed chips' slices over the survivors, least-loaded-first
    seeded with each survivor's primary-round load (so recovery work lands
    on the chips that finished earliest)."""
    counts = tensor.slice_nnz_counts(mode)
    order = orphan_slices[np.argsort(counts[orphan_slices])[::-1]]
    assigned = least_loaded_redeal(
        [int(s) for s in order], counts, survivors, survivor_loads
    )
    return {
        c: np.array(sorted(slices), dtype=np.int64)
        for c, slices in assigned.items()
    }


class MultiChipTensaurus:
    """A farm of identical Tensaurus chips running one partitioned kernel.

    ``fault_plan`` (or ``config.fault_plan``) arms fault injection: whole
    chips fail per :meth:`FaultPlan.chip_failures` (plus any chip whose
    launch aborts), and the farm recovers by re-dealing their slices over
    the survivors. Every chip fails → :class:`FaultError`.
    """

    def __init__(
        self,
        num_chips: int,
        config: Optional[TensaurusConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_chips <= 0:
            raise ConfigError("num_chips must be positive")
        self.num_chips = num_chips
        self.config = config or TensaurusConfig()
        self.fault_plan = (
            fault_plan if fault_plan is not None else self.config.fault_plan
        )
        self._runs = 0

    def run_mttkrp(
        self,
        tensor: SparseTensor,
        mat_b: np.ndarray,
        mat_c: np.ndarray,
        mode: int = 0,
        msu_mode: str = "auto",
        compute_output: bool = False,
    ) -> MultiChipResult:
        """Partitioned SpMTTKRP: each chip runs its slice subset."""
        if tensor.ndim != 3:
            raise KernelError("multi-chip tensor kernels are 3-d")
        run_idx = self._runs
        self._runs += 1
        plan = self.fault_plan
        armed = plan is not None and plan.enabled
        failed = set(plan.chip_failures(self.num_chips, run_idx)) if armed else set()

        partitions = partition_slices(tensor, mode, self.num_chips)
        assignments: List[ChipAssignment] = []
        events: List[FaultEvent] = []
        for chip, slices in enumerate(partitions):
            sub = _restrict_to_slices(tensor, mode, slices)
            assignment = ChipAssignment(chip, slices, sub.nnz)
            if chip in failed:
                assignment.failed = True
            elif sub.nnz:
                acc = Tensaurus(
                    self.config,
                    fault_plan=plan,
                    fault_epoch=chip,
                )
                try:
                    assignment.report = acc.run_mttkrp(
                        sub, mat_b, mat_c, mode=mode, msu_mode=msu_mode,
                        compute_output=compute_output,
                    )
                except FaultError:
                    # The chip died at launch: same recovery path as a drawn
                    # chip failure.
                    assignment.failed = True
                    failed.add(chip)
            assignments.append(assignment)
        for chip in sorted(failed):
            events.append(FaultEvent(CHIP_FAILURE, ("chip", int(chip))))

        recovery: List[ChipAssignment] = []
        if failed:
            survivors = [c for c in range(self.num_chips) if c not in failed]
            if not survivors:
                raise FaultError(
                    f"all {self.num_chips} chips failed in run {run_idx}"
                )
            orphans = np.concatenate(
                [partitions[c] for c in sorted(failed)]
                + [np.empty(0, dtype=np.int64)]
            ).astype(np.int64)
            if orphans.size:
                loads = {
                    a.chip: a.nnz for a in assignments if not a.failed
                }
                re_deal = _redistribute_slices(
                    tensor, mode, orphans, survivors, loads
                )
                # Recovery runs re-draw tile faults on a fresh epoch but do
                # not re-fail: abort/chip-failure knobs are stripped.
                recovery_plan = None
                if armed:
                    recovery_plan = replace(
                        plan,
                        launch_abort_rate=0.0,
                        chip_failure_rate=0.0,
                        forced_chip_failures=(),
                    )
                for chip in survivors:
                    slices = re_deal.get(chip, np.empty(0, dtype=np.int64))
                    if slices.size == 0:
                        continue
                    sub = _restrict_to_slices(tensor, mode, slices)
                    assignment = ChipAssignment(chip, slices, sub.nnz)
                    if sub.nnz:
                        acc = Tensaurus(
                            self.config,
                            fault_plan=recovery_plan,
                            fault_epoch=self.num_chips + chip,
                        )
                        assignment.report = acc.run_mttkrp(
                            sub, mat_b, mat_c, mode=mode, msu_mode=msu_mode,
                            compute_output=compute_output,
                        )
                    recovery.append(assignment)
        return MultiChipResult(
            assignments=assignments,
            mode=mode,
            failed_chips=sorted(int(c) for c in failed),
            recovery=recovery,
            fault_events=events,
        )


def _restrict_to_slices(
    tensor: SparseTensor, mode: int, slices: np.ndarray
) -> SparseTensor:
    """The sub-tensor holding only the given slices (global indexing kept,
    so per-chip outputs line up with the global output)."""
    if slices.size == 0:
        return SparseTensor.empty(tensor.shape)
    mask = np.isin(tensor.coords[:, mode], slices)
    return SparseTensor(
        tensor.shape, tensor.coords[mask], tensor.values[mask], canonical=True
    )
