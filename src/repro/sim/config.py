"""Hardware configuration for the Tensaurus simulator (Section 6 numbers).

The default :class:`TensaurusConfig` mirrors the evaluated design point: an
8x8 PE array with VLEN=4 (512 scalar multipliers+adders), 2 GHz clock,
16 KB-per-side double-buffered SPMs (32 KB in the first column), a
2x128 KB MSU output buffer, and 8-channel HBM at 128 GB/s. The peak
attainable throughput follows the paper's arithmetic: every other PE cycle
is a scratchpad access, so ``512 * 2 GHz * 0.5 = 512 GOP/s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.sim.faults import FaultPlan
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class MemoryConfig:
    """A DRAM interface: peak bandwidth plus request-level behaviour.

    ``latency_ns`` and ``max_outstanding`` drive the Little's-law limit on
    achieved bandwidth for narrow request streams; ``burst_bytes`` is the
    minimum fetch granularity (narrow requests waste the remainder of the
    burst — the extended-CSR pathology of Fig. 3e).
    """

    name: str
    peak_gbs: float
    latency_ns: float
    max_outstanding: int
    burst_bytes: int
    clock_ghz: float

    def __post_init__(self) -> None:
        for attr in ("peak_gbs", "latency_ns", "clock_ghz"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        if self.max_outstanding <= 0 or self.burst_bytes <= 0:
            raise ConfigError("max_outstanding and burst_bytes must be positive")

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bytes per memory clock cycle."""
        return self.peak_gbs / self.clock_ghz

    @property
    def latency_cycles(self) -> int:
        """Access latency in memory clock cycles."""
        return max(1, round(self.latency_ns * self.clock_ghz))


#: The accelerator's HBM: 8 x 128-bit channels at 1 GHz = 128 GB/s (gem5
#: model of Section 6). Generous MSHRs: the TLU/MLU pipeline deep requests.
HBM_PRESET = MemoryConfig(
    name="hbm",
    peak_gbs=128.0,
    latency_ns=60.0,
    max_outstanding=48,
    burst_bytes=64,
    clock_ghz=1.0,
)

#: The single-channel DDR4 used for the Fig. 3e format comparison:
#: 16 GB/s peak, 8 outstanding requests.
DDR4_PRESET = MemoryConfig(
    name="ddr4",
    peak_gbs=16.0,
    latency_ns=45.0,
    max_outstanding=8,
    burst_bytes=64,
    clock_ghz=1.2,
)


@dataclass(frozen=True)
class TensaurusConfig:
    """Full accelerator design point."""

    rows: int = 8  # r: PE rows == CISS lanes
    cols: int = 8  # c: PE columns (each owns one SPM)
    vlen: int = 4  # SIMD width of each PE's VVMUL/VVADD
    clock_ghz: float = 2.0
    data_width: int = 4  # bytes per value (fp32)
    index_width: int = 2  # bytes per CISS index field
    spm_kb: int = 16  # per-side SPM capacity, non-first columns
    spm_first_col_kb: int = 32  # first column holds two operand tiles
    spm_banks: int = 8
    msu_kb: int = 128  # per-side MSU output buffer
    msu_banks: int = 8
    memory: MemoryConfig = field(default_factory=lambda: HBM_PRESET)
    #: cycles a PE spends per lane record: one SPM access + one SIMD MAC
    #: ("each PE spends every other clock cycle to access the scratchpads").
    cycles_per_record: int = 2
    #: LRU capacity of the per-accelerator encoding cache (fiber plans,
    #: tile partitions, batched lane statistics). 0 disables caching.
    encoding_cache_entries: int = 64
    #: optional fault-injection plan (see :mod:`repro.sim.faults`). ``None``
    #: or an all-zero-rate plan leaves every report bit-identical to the
    #: fault-free simulator. Being a config field, it sweeps through
    #: :func:`repro.sim.sweep.sweep_configs` grids like any other knob.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        for attr in ("rows", "cols", "vlen", "spm_kb", "spm_first_col_kb",
                     "msu_kb", "spm_banks", "msu_banks", "data_width",
                     "index_width", "cycles_per_record"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.encoding_cache_entries < 0:
            raise ConfigError("encoding_cache_entries must be >= 0")

    # ------------------------------------------------------------------
    # Derived quantities used throughout the simulator and the rooflines
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def mac_units(self) -> int:
        """Scalar multiplier count: rows * cols * vlen."""
        return self.num_pes * self.vlen

    @property
    def peak_gops(self) -> float:
        """Peak throughput: 2 ops per MAC, half the cycles on SPM access."""
        return self.mac_units * 2 * self.clock_ghz * (1.0 / self.cycles_per_record)

    @property
    def peak_bw_gbs(self) -> float:
        return self.memory.peak_gbs

    @property
    def hbm_bytes_per_cycle(self) -> float:
        """Memory bytes available per *accelerator* cycle."""
        return self.memory.peak_gbs / self.clock_ghz

    @property
    def fiber_tile(self) -> int:
        """Output-fiber elements produced per pass: cols * vlen (the rank
        tile; rank dimensions wider than this need extra passes)."""
        return self.cols * self.vlen

    def spm_rows(self, operands_per_spm: int = 1) -> int:
        """Dense-matrix rows one SPM side can hold for its vlen-wide chunk.

        ``operands_per_spm`` is 2 for MTTKRP (each SPM holds tiles of both
        B and C, Section 5.2.3) and 1 for SpMM/TTMc non-first columns.
        """
        side_bytes = self.spm_kb * 1024
        row_bytes = self.vlen * self.data_width
        return max(1, side_bytes // (row_bytes * operands_per_spm))

    def msu_rows(self, fiber_elems: int) -> int:
        """Output rows one MSU buffer side holds at ``fiber_elems`` per row."""
        side_bytes = self.msu_kb * 1024
        return max(1, side_bytes // (fiber_elems * self.data_width))

    def ciss_entry_bytes(self, index_fields: int = 2,
                         lanes: Optional[int] = None) -> int:
        """Bytes per CISS entry: (dw + index_fields*iw) * lanes.

        ``lanes`` defaults to the full PE-row count; the fault layer passes
        the surviving lane count when PE-lane dropouts narrow the stream.
        """
        width = lanes if lanes is not None else self.rows
        return (self.data_width + index_fields * self.index_width) * width

    def with_memory(self, memory: MemoryConfig) -> "TensaurusConfig":
        return replace(self, memory=memory)

    def scaled(self, **kwargs) -> "TensaurusConfig":
        """A modified copy (for the scaling ablations and the auto-tuner).

        Unknown field names raise :class:`ConfigError` naming the bad key
        and the valid fields, instead of the opaque ``TypeError`` that
        ``dataclasses.replace`` emits (the same pre-check
        :func:`repro.sim.sweep.sweep_configs` applies to its grid).
        """
        valid = tuple(f.name for f in fields(self))
        for name in kwargs:
            if name not in valid:
                raise ConfigError(
                    f"unknown config field {name!r}; valid fields: "
                    + ", ".join(valid)
                )
        return replace(self, **kwargs)
