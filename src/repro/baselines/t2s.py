"""T2S-Tensor baseline (Srivastava et al., FCCM 2019) for dense kernels.

The paper compares Tensaurus's dense mode against T2S-Tensor scaled to the
same MAC count and clock, reporting the absolute throughputs of Table 6
(986.3 / 926.6 / 1019.8 GOP/s for DMTTKRP / DTTMc / GEMM). Because T2S
generates fully pipelined spatial designs with no sparse machinery, it
sustains roughly 2x Tensaurus's dense throughput (Tensaurus spends every
other cycle on scratchpad access); the paper calls its own scaling
"pessimistic" since it assumes perfect T2S scaling. We model T2S as those
fixed throughputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.baselines.base import BaselineResult, WorkloadStats
from repro.util.errors import KernelError

#: Table 6 throughputs (GOP/s) of the scaled T2S-Tensor designs, keyed
#: by dense kernel name.
T2S_THROUGHPUT_GOPS: Dict[str, float] = {
    "dmttkrp": 986.3,
    "dttmc": 926.6,
    "gemm": 1019.8,
}


@dataclass
class T2SBaseline:
    """Fixed-throughput model of the scaled T2S-Tensor dense designs."""

    #: FPGA power at the scaled design point (Arria-10 class, W).
    power_w: float = 15.0
    throughput: Dict[str, float] = field(
        default_factory=lambda: dict(T2S_THROUGHPUT_GOPS)
    )

    def run(self, stats: WorkloadStats) -> BaselineResult:
        if not stats.dense:
            raise KernelError("T2S-Tensor supports dense kernels only")
        kernel = stats.spec.dense
        if kernel not in self.throughput:
            raise KernelError(f"T2S-Tensor does not implement {kernel!r}")
        gops = self.throughput[kernel]
        time_s = stats.ops / (gops * 1.0e9)
        return BaselineResult(
            platform="t2s-tensor",
            kernel=stats.kernel,
            time_s=time_s,
            energy_j=self.power_w * time_s,
            ops=stats.ops,
            bytes_moved=stats.sparse_bytes + stats.factor_bytes + stats.output_bytes,
        )
