"""GPU baseline: ParTI (tensor kernels) / cuSPARSE (matrix kernels) on a
Titan Xp.

Roofline with per-kernel efficiency pairs (fraction of the 12.15 TFLOP/s
peak when compute bound, fraction of the 547.6 GB/s peak when memory
bound), plus a fixed kernel-launch overhead that penalizes the small CNN
layers the way the paper's Fig. 10 shows.

Calibration notes:
- ParTI SpMTTKRP is atomics- and gather-bound: it sustains a small
  fraction of peak bandwidth (the paper's Tensaurus/GPU geomean is 3.1x).
- ParTI SpTTMc *kernel-only* is fast (the host pre-/post-processing is
  excluded, as the paper notes): Tensaurus reaches only 0.1x of it.
- cuSPARSE SpMM approaches Tensaurus on the very sparse SuiteSparse
  matrices (0.87x) but loses on the mid-density CNN layers (1.8x).
- cuSPARSE SpMV on a 5x-bandwidth GPU beats Tensaurus (0.45x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.baselines.base import BaselineResult, WorkloadStats
from repro.energy.model import GPU_POWER


@dataclass
class GPUBaseline:
    """Roofline model of the paper's GPU software baselines."""

    peak_gflops: float = 12150.0
    peak_bw_gbs: float = 547.6
    l2_bytes: int = 3 * 1024 * 1024
    launch_overhead_s: float = 12.0e-6
    #: kernel -> (flop efficiency, bandwidth efficiency)
    efficiency: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {
            "mttkrp": (0.005, 0.04),  # ParTI SpMTTKRP (atomics, gathers)
            "ttmc": (0.40, 0.85),  # ParTI SpTTMc kernel-only
            "spmm": (0.016, 0.22),  # cuSPARSE csrmm (CSR is dense-hostile)
            "gemm": (0.75, 0.90),  # cuBLAS-class
            "spmv": (0.03, 0.75),  # cuSPARSE csrmv (BW-friendly)
            "gemv": (0.10, 0.80),
            "dmttkrp": (0.30, 0.85),
            "dttmc": (0.35, 0.85),
        }
    )

    def run(self, stats: WorkloadStats) -> BaselineResult:
        spec = stats.spec
        flop_eff, bw_eff = self.efficiency[spec.dense if stats.dense else spec.name]
        ops = stats.ops
        bytes_moved = self._traffic(stats)
        compute_s = ops / (self.peak_gflops * 1.0e9 * flop_eff)
        memory_s = bytes_moved / (self.peak_bw_gbs * 1.0e9 * bw_eff)
        time_s = self.launch_overhead_s + max(compute_s, memory_s)
        energy = GPU_POWER.energy(time_s, bytes_moved)
        return BaselineResult(
            platform="gpu",
            kernel=stats.kernel,
            time_s=time_s,
            energy_j=energy,
            ops=ops,
            bytes_moved=bytes_moved,
        )

    def _traffic(self, stats: WorkloadStats) -> int:
        """DRAM bytes: sparse stream + factors (L2-modelled) + output."""
        traffic = stats.sparse_bytes + stats.output_bytes
        factors = stats.factor_bytes
        if factors <= self.l2_bytes:
            traffic += factors
        else:
            # Warp-coalesced fiber reads: misses fetch 32B sectors.
            miss_rate = 1.0 - self.l2_bytes / factors
            traffic += factors + int(stats.nnz * miss_rate) * 32
        return int(traffic)
