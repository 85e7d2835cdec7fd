"""Cycle-level simulator of the Tensaurus accelerator (Section 5).

The simulator reproduces the architecture of Fig. 5: a tensor load unit
streaming CISS entries, a matrix load unit filling banked double-buffered
scratchpads, an ``r x c`` PE array executing the SF3 dataflow with TSR/OSR
shift registers, and a matrix store unit accumulating output tiles — all
against an HBM bandwidth model, with the tiling and reuse policies of
Sections 5.2.3-5.2.5.

Two execution engines share one timing model:

- :class:`repro.sim.pe.PELane` — one PE row replaying its lane stream,
  with functional output, exact cycles and optional micro-event traces;
  used by tests and the event engine.
- :class:`repro.sim.accelerator.Tensaurus` — the tiled engine used by the
  benchmarks; cycle counts match the PE lanes exactly (asserted in the
  test suite) and outputs are checked against the reference kernels.
"""

from repro.sim.config import TensaurusConfig, HBM_PRESET, DDR4_PRESET, MemoryConfig
from repro.sim.shm import SharedOperands
from repro.sim.batch import (
    BatchTileStats,
    EncodingCache,
    MatrixTilePartition,
    TensorTilePartition,
    analyze_tile_stream,
    fingerprint_arrays,
)
from repro.sim.report import SimReport
from repro.sim.memory import StreamMemory
from repro.sim.accelerator import Tensaurus
from repro.sim.faults import FaultEvent, FaultPlan, FaultState, RunFaultContext
from repro.sim.perfmodel import FastModel
from repro.sim.event import EventDrivenTensaurus, EventSimResult
from repro.sim.timeline import Timeline, TimelineEntry
from repro.sim.multichip import MultiChipTensaurus, MultiChipResult, partition_slices
from repro.sim.sweep import (
    DesignPoint,
    SweepFailure,
    SweepResult,
    pareto_front,
    render_sweep,
    sweep_configs,
    sweep_points,
)
from repro.sim.driver import (
    Instruction,
    Opcode,
    ProgramError,
    TensaurusDevice,
    assemble_mttkrp,
    assemble_spmm,
    assemble_spmv,
    assemble_ttmc,
)

__all__ = [
    "TensaurusConfig",
    "MemoryConfig",
    "SharedOperands",
    "BatchTileStats",
    "EncodingCache",
    "MatrixTilePartition",
    "TensorTilePartition",
    "analyze_tile_stream",
    "fingerprint_arrays",
    "HBM_PRESET",
    "DDR4_PRESET",
    "SimReport",
    "StreamMemory",
    "Tensaurus",
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "RunFaultContext",
    "FastModel",
    "EventDrivenTensaurus",
    "EventSimResult",
    "Timeline",
    "TimelineEntry",
    "MultiChipTensaurus",
    "MultiChipResult",
    "partition_slices",
    "DesignPoint",
    "SweepFailure",
    "SweepResult",
    "pareto_front",
    "render_sweep",
    "sweep_configs",
    "sweep_points",
    "Instruction",
    "Opcode",
    "ProgramError",
    "TensaurusDevice",
    "assemble_mttkrp",
    "assemble_spmm",
    "assemble_spmv",
    "assemble_ttmc",
]
