"""CPU baseline: SPLATT / Sparse BLAS on one Xeon E7-8867 core.

A single-core roofline with an L3 cache model. Peak single-precision
throughput: 2.4 GHz x 8-wide SIMD x 2 (FMA) = 38.4 GFLOP/s. Sustained
single-core DRAM bandwidth ~10 GB/s; factor matrices that fit in the 45 MB
L3 are read from memory once, otherwise random fiber accesses miss at a
rate proportional to the working-set overflow.

Per-kernel compute efficiencies are the calibration: published SPLATT and
MKL-class measurements put single-core SpMTTKRP at a few GFLOP/s and dense
GEMM near peak. SPLATT's SpTTMc benefits disproportionately from the big
L3 (operand factoring reuse), which is why the paper's speedup over CPU is
only ~6x there against ~23x for SpMTTKRP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.baselines.base import BaselineResult, WorkloadStats
from repro.energy.model import CPU_POWER


@dataclass
class CPUBaseline:
    """Roofline model of the paper's CPU software baselines."""

    peak_gflops: float = 38.4
    sustained_bw_gbs: float = 10.0
    l3_bytes: int = 45 * 1024 * 1024
    cacheline: int = 64
    #: fraction of peak FLOP/s each kernel sustains when compute bound
    efficiency: Dict[str, float] = field(
        default_factory=lambda: {
            "mttkrp": 0.14,  # SPLATT single-core SpMTTKRP
            "ttmc": 0.40,  # SPLATT SpTTMc: factored + L3-resident reuse
            "spmm": 0.02,  # reference (scalar) Sparse BLAS CSR SpMM
            "gemm": 0.85,  # MKL-class dense GEMM
            "spmv": 0.02,
            "gemv": 0.60,
            "dmttkrp": 0.55,
            "dttmc": 0.55,
        }
    )

    def run(self, stats: WorkloadStats) -> BaselineResult:
        """Estimate one kernel's runtime and energy on the CPU."""
        spec = stats.spec
        eff = self.efficiency[spec.dense if stats.dense else spec.name]
        ops = stats.ops
        compute_s = ops / (self.peak_gflops * 1.0e9 * eff)
        bytes_moved = self._traffic(stats)
        memory_s = bytes_moved / (self.sustained_bw_gbs * 1.0e9)
        time_s = max(compute_s, memory_s)
        energy = CPU_POWER.energy(time_s, bytes_moved)
        return BaselineResult(
            platform="cpu",
            kernel=stats.kernel,
            time_s=time_s,
            energy_j=energy,
            ops=ops,
            bytes_moved=bytes_moved,
        )

    def _traffic(self, stats: WorkloadStats) -> int:
        """DRAM bytes with the L3 model.

        The sparse operand always streams. Factor/operand matrices stream
        once when they fit in (half of) the L3; each nonzero's random fiber
        access otherwise misses with probability equal to the overflow
        fraction, costing a cache line.
        """
        traffic = stats.sparse_bytes + stats.output_bytes
        factors = stats.factor_bytes
        budget = self.l3_bytes // 2
        if factors <= budget:
            traffic += factors
        else:
            miss_rate = 1.0 - budget / factors
            traffic += factors + int(stats.nnz * miss_rate) * self.cacheline
        return int(traffic)
