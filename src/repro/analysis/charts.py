"""Plain-text charts for terminal-friendly result inspection.

The benchmark harness records tables; this helper additionally renders the
Fig. 7-style roofline as an ASCII log-log scatter — no plotting
dependencies required.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.analysis.roofline import RooflinePoint
from repro.util.errors import ConfigError

_MARKS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _log_bucket(value: float, lo: float, hi: float, cells: int) -> int:
    """Map ``value`` onto ``[0, cells)`` on a log scale, clamped."""
    if value <= lo:
        return 0
    if value >= hi:
        return cells - 1
    frac = (math.log10(value) - math.log10(lo)) / (
        math.log10(hi) - math.log10(lo)
    )
    return min(cells - 1, int(frac * cells))


def ascii_roofline(
    points: Sequence[RooflinePoint],
    peak_gops: float,
    peak_bw_gbs: float,
    width: int = 64,
    height: int = 18,
    oi_range: Tuple[float, float] = (0.1, 100.0),
    perf_range: Tuple[float, float] = (1.0, 1000.0),
) -> str:
    """Render roofline points under the roof on a log-log character grid.

    Each point is drawn with a letter; a legend maps letters to labels.
    The roof itself is drawn with ``/`` (bandwidth slope) and ``-`` (compute
    ceiling).
    """
    if width < 16 or height < 6:
        raise ConfigError("chart must be at least 16x6 cells")
    if len(points) > len(_MARKS):
        raise ConfigError(f"too many points (max {len(_MARKS)})")
    grid = [[" "] * width for _ in range(height)]
    # Draw the roof: for each column's OI, the attainable performance.
    oi_lo, oi_hi = oi_range
    p_lo, p_hi = perf_range
    for col in range(width):
        frac = col / (width - 1)
        oi = 10 ** (
            math.log10(oi_lo) + frac * (math.log10(oi_hi) - math.log10(oi_lo))
        )
        attain = min(peak_gops, oi * peak_bw_gbs)
        row = height - 1 - _log_bucket(attain, p_lo, p_hi, height)
        grid[row][col] = "-" if attain >= peak_gops else "/"
    # Plot the points (later points overwrite the roof, not each other's
    # legend entries).
    legend: List[str] = []
    for i, pt in enumerate(points):
        mark = _MARKS[i]
        col = _log_bucket(pt.op_intensity, oi_lo, oi_hi, width)
        row = height - 1 - _log_bucket(max(pt.gops, p_lo), p_lo, p_hi, height)
        grid[row][col] = mark
        legend.append(
            f"  {mark} = {pt.label} (OI {pt.op_intensity:.2f}, "
            f"{pt.gops:.0f} GOP/s, {pt.bound})"
        )
    lines = [f"{'GOP/s':>8} ^"]
    for r, row in enumerate(grid):
        ylabel = ""
        if r == 0:
            ylabel = f"{p_hi:g}"
        elif r == height - 1:
            ylabel = f"{p_lo:g}"
        lines.append(f"{ylabel:>8} |{''.join(row)}|")
    lines.append(f"{'':>8} +{'-' * width}> OI (op/byte), "
                 f"{oi_lo:g} .. {oi_hi:g} log scale")
    lines.extend(legend)
    return "\n".join(lines)

