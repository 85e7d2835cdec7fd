"""Tiling and reuse planning (Sections 5.2.3 and 5.2.5).

The SPMs bound how many dense-operand rows live on chip (so the j/k index
spaces are tiled), the PE array bounds how many output-fiber elements one
pass produces (so wide ranks take multiple passes), and the MSU bounds how
many output rows accumulate on chip. The MSU supports two reduction modes:

- **buffered** — output rows accumulate in the MSU double buffer; the sparse
  operand is tiled along the output mode too, and the dense operand tiles
  are re-streamed once per output tile (more matrix traffic, no output
  read-modify-write traffic).
- **direct** — partial output rows accumulate in main memory (read+write per
  slice visit); the whole output mode is one tile so dense operand tiles
  stream exactly once (the paper's recommendation for very sparse tensors).

``choose_msu_mode`` picks whichever moves fewer bytes, which is the policy
the paper sketches; the ablation benchmark compares the two directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.kernels.spec import kernel_spec
from repro.sim.config import TensaurusConfig
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TilingPlan:
    """Tile geometry for one kernel execution."""

    kernel: str
    msu_mode: str  # "buffered" or "direct"
    fiber_elems: int  # output fiber elements produced per pass
    f1_tile: int  # TTMc: fiber1 elements held in the OSR per pass (else 0)
    passes: int  # total rank passes (f1_passes * f2_passes)
    i_tile: int  # output-mode rows per tile (whole extent in direct mode)
    j_tile: int  # fiber1 / SpMM-column rows resident per SPM tile
    k_tile: Optional[int]  # fiber0 rows resident per SPM tile (tensors only)
    cols_active: int  # PE columns with work (ceil(fiber_elems / vlen))

    def __post_init__(self) -> None:
        if self.msu_mode not in ("buffered", "direct"):
            raise ConfigError(f"unknown MSU mode {self.msu_mode!r}")

    @property
    def out_elems(self) -> int:
        """Output elements per slice/row per pass: the OSR's F1 x F2
        block for TTMc, one output fiber otherwise."""
        return (self.f1_tile or 1) * self.fiber_elems

    def dense_elems(self, j, k=0):
        """Dense-operand elements of an SPM tile holding ``j`` fiber1 rows
        and ``k`` fiber0 rows (``k = 0`` for matrices). A fiber1 row is an
        F1 tile for TTMc, which only ever holds ``f1_tile > 0``, and an
        output fiber otherwise. Works elementwise on integer arrays."""
        return j * (self.f1_tile or self.fiber_elems) + k * self.fiber_elems


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def plan_mttkrp(
    config: TensaurusConfig,
    dims: tuple,
    rank: int,
    msu_mode: str = "buffered",
) -> TilingPlan:
    """Tile plan for (Sp/D)MTTKRP: each SPM holds tiles of both B and C."""
    i_dim, j_dim, k_dim = dims
    fiber = min(rank, config.fiber_tile)
    passes = _ceil_div(rank, config.fiber_tile)
    spm_rows = config.spm_rows(operands_per_spm=2)
    i_tile = i_dim if msu_mode == "direct" else min(i_dim, config.msu_rows(fiber))
    return TilingPlan(
        kernel="mttkrp",
        msu_mode=msu_mode,
        fiber_elems=fiber,
        f1_tile=0,
        passes=passes,
        i_tile=max(1, i_tile),
        j_tile=min(j_dim, spm_rows),
        k_tile=min(k_dim, spm_rows),
        cols_active=_ceil_div(fiber, config.vlen),
    )


def plan_ttmc(
    config: TensaurusConfig,
    dims: tuple,
    rank1: int,
    rank2: int,
    msu_mode: str = "buffered",
) -> TilingPlan:
    """Tile plan for (Sp/D)TTMc.

    F2 tiles across the PE columns like the MTTKRP rank; F1 tiles by the
    OSR depth (OLEN == VLEN, Section 5.2.4), so wide F1 takes extra passes.
    The first-column SPM holds the B tile alongside C (hence double size).
    """
    i_dim, j_dim, k_dim = dims
    f2_tile = min(rank2, config.fiber_tile)
    f1_tile = min(rank1, config.vlen)
    passes = _ceil_div(rank2, config.fiber_tile) * _ceil_div(rank1, config.vlen)
    spm_rows = config.spm_rows(operands_per_spm=2)
    out_elems = f1_tile * f2_tile
    i_tile = i_dim if msu_mode == "direct" else min(i_dim, config.msu_rows(out_elems))
    return TilingPlan(
        kernel="ttmc",
        msu_mode=msu_mode,
        fiber_elems=f2_tile,
        f1_tile=f1_tile,
        passes=passes,
        i_tile=max(1, i_tile),
        j_tile=min(j_dim, spm_rows),
        k_tile=min(k_dim, spm_rows),
        cols_active=_ceil_div(f2_tile, config.vlen),
    )


def plan_spmm(
    config: TensaurusConfig,
    dims: tuple,
    ncols: int,
    msu_mode: str = "buffered",
) -> TilingPlan:
    """Tile plan for SpMM/GEMM: each SPM holds a tile of B only."""
    i_dim, j_dim = dims
    fiber = min(ncols, config.fiber_tile)
    passes = _ceil_div(ncols, config.fiber_tile)
    spm_rows = config.spm_rows(operands_per_spm=1)
    i_tile = i_dim if msu_mode == "direct" else min(i_dim, config.msu_rows(fiber))
    return TilingPlan(
        kernel="spmm",
        msu_mode=msu_mode,
        fiber_elems=fiber,
        f1_tile=0,
        passes=passes,
        i_tile=max(1, i_tile),
        j_tile=min(j_dim, spm_rows),
        k_tile=None,
        cols_active=_ceil_div(fiber, config.vlen),
    )


def plan_spmv(
    config: TensaurusConfig,
    dims: tuple,
    msu_mode: str = "buffered",
) -> TilingPlan:
    """Tile plan for SpMV/GEMV: vector tile in the first-column SPM only."""
    i_dim, j_dim = dims
    vec_rows = max(
        1, (config.spm_first_col_kb * 1024) // (2 * config.data_width)
    )
    i_tile = i_dim if msu_mode == "direct" else min(
        i_dim, (config.msu_kb * 1024) // config.data_width
    )
    return TilingPlan(
        kernel="spmv",
        msu_mode=msu_mode,
        fiber_elems=1,
        f1_tile=0,
        passes=1,
        i_tile=max(1, i_tile),
        j_tile=min(j_dim, vec_rows),
        k_tile=None,
        cols_active=1,
    )


def make_plan(
    kernel: str,
    config: TensaurusConfig,
    dims: tuple,
    msu_mode: str = "buffered",
    rank: int = 0,
    rank2: int = 0,
) -> TilingPlan:
    """Dispatch to the planner of ``kernel``'s family (any of its names)."""
    name = kernel_spec(kernel).name
    if name == "mttkrp":
        return plan_mttkrp(config, dims, rank, msu_mode)
    if name == "ttmc":
        return plan_ttmc(config, dims, rank, rank2, msu_mode)
    if name == "spmm":
        return plan_spmm(config, dims, rank, msu_mode)
    return plan_spmv(config, dims, msu_mode)


def tile_count(extent: int, tile: int) -> int:
    """Number of tiles covering an index space."""
    if tile <= 0:
        raise ConfigError("tile size must be positive")
    return max(1, math.ceil(extent / tile))
