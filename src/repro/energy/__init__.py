"""Energy and area models.

Wires the paper's Table 2 area/power breakdown (Synopsys DC + CACTI, TSMC
28 nm, 2 GHz) into an activity-scaled energy model for the accelerator, plus
the published power assumptions for the CPU (McPAT), GPU (TDP-derived) and
Cambricon-X (65 nm numbers scaled to 28 nm) baselines and HBM/DDR energy
per byte.
"""

from repro.energy.model import (
    AREA_POWER_TABLE,
    TENSAURUS_TOTAL_POWER_W,
    TENSAURUS_TOTAL_AREA_MM2,
    accelerator_energy,
    scale_power_65_to_28,
    BaselinePower,
    CPU_POWER,
    GPU_POWER,
    CAMBRICON_POWER,
)

__all__ = [
    "AREA_POWER_TABLE",
    "TENSAURUS_TOTAL_POWER_W",
    "TENSAURUS_TOTAL_AREA_MM2",
    "accelerator_energy",
    "scale_power_65_to_28",
    "BaselinePower",
    "CPU_POWER",
    "GPU_POWER",
    "CAMBRICON_POWER",
]
