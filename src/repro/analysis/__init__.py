"""Analysis helpers: roofline math, speedup/energy tables, text rendering."""

from repro.analysis.roofline import RooflinePoint, attainable_gops, classify_point
from repro.analysis.tables import (
    geomean,
    format_table,
    speedup_table,
    SpeedupRow,
)
from repro.analysis.charts import ascii_roofline

__all__ = [
    "RooflinePoint",
    "attainable_gops",
    "classify_point",
    "geomean",
    "format_table",
    "speedup_table",
    "SpeedupRow",
    "ascii_roofline",
]
