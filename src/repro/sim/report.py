"""Simulation result record shared by the cycle simulator and fast model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.sim.faults import FaultEvent


@dataclass
class SimReport:
    """Outcome of one kernel execution on the simulated accelerator.

    The per-stream byte counts let the rooflines and the energy model work
    from the same numbers the timing used. ``faults`` itemizes the
    fault-injection layer's accounting (injected faults, detection cost,
    replay/recovery cycles) and is empty on fault-free runs;
    ``fault_events`` carries the typed per-fault records (capped per run).
    ``phase_cycles`` is observational: the launch's cycles by phase as
    reported to the tracer, kept only when the launch ran observed, so
    a replay of the report can be reported the same way.
    """

    kernel: str
    cycles: int
    ops: int
    tensor_bytes: int
    matrix_bytes: int
    output_bytes: int
    clock_ghz: float
    output: Optional[np.ndarray] = None
    detail: Dict[str, float] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    fault_events: List[FaultEvent] = field(default_factory=list)
    phase_cycles: Optional[Dict[str, int]] = field(
        default=None, compare=False, repr=False
    )

    def clone(self, faults: Optional[Dict[str, int]] = None) -> "SimReport":
        """A copy that shares only ``output`` with this report.

        ``detail``, ``fault_events``, ``phase_cycles`` and ``faults``
        (``faults`` itself when given) are the copy's own, so a memo can
        hand out one clone per launch and keep its stored report, whose
        output it makes read-only, intact. Copies ``__dict__`` instead of
        going through ``dataclasses.replace``, which re-runs
        ``__init__`` at about three times the cost.
        """
        state = self.__dict__.copy()
        state["detail"] = dict(self.detail)
        state["faults"] = dict(self.faults) if faults is None else faults
        state["fault_events"] = list(self.fault_events)
        if self.phase_cycles is not None:
            state["phase_cycles"] = dict(self.phase_cycles)
        copy = SimReport.__new__(SimReport)
        copy.__dict__ = state
        return copy

    @property
    def total_bytes(self) -> int:
        return self.tensor_bytes + self.matrix_bytes + self.output_bytes

    @property
    def time_s(self) -> float:
        return self.cycles / (self.clock_ghz * 1.0e9)

    @property
    def gops(self) -> float:
        """Achieved throughput in GOP/s (1 op = 1 multiply or 1 add)."""
        if self.cycles == 0:
            return 0.0
        return self.ops / self.time_s / 1.0e9

    @property
    def achieved_bw_gbs(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.total_bytes / self.time_s / 1.0e9

    @property
    def op_intensity(self) -> float:
        """Operations per byte of off-chip traffic (roofline x-axis)."""
        if self.total_bytes == 0:
            return float("inf")
        return self.ops / self.total_bytes

    @property
    def recovery_cycles(self) -> int:
        """Cycles this run spent on fault detection and recovery: the
        difference to the fault-free schedule of the same workload."""
        return int(self.faults.get("fault_overhead_cycles", 0))

    @property
    def fault_free(self) -> bool:
        """True when the fault layer added nothing to this launch: no
        fault events and no detection or recovery cost, so its numbers
        are the clean schedule's (``active_lanes`` is a lane count, not
        a fault)."""
        return not self.fault_events and not any(
            v for k, v in self.faults.items() if k != "active_lanes"
        )

    @property
    def fault_free_cycles(self) -> int:
        """The schedule with the fault layer's overhead removed."""
        return self.cycles - self.recovery_cycles

    def summary(self) -> str:
        text = (
            f"{self.kernel}: {self.cycles} cycles, {self.gops:.1f} GOP/s, "
            f"{self.achieved_bw_gbs:.1f} GB/s, OI={self.op_intensity:.2f}"
        )
        if self.faults:
            text += f", {self.recovery_cycles} recovery cycles"
        return text
