"""Shared workload descriptors for the baseline cost models.

A :class:`WorkloadStats` captures everything the analytical baselines need
about one kernel invocation: operand shapes, nonzero structure (count,
fibers, nonempty rows/slices) and the rank parameters. The builders extract
these exactly from real operands so baseline estimates and simulator runs
describe the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spec import KernelSpec, kernel_spec
from repro.tensor import SparseTensor
from repro.util.arrays import count_distinct
from repro.util.errors import KernelError


@dataclass(frozen=True)
class WorkloadStats:
    """Structure statistics of one kernel invocation."""

    kernel: str
    dims: Tuple[int, ...]  # operand dims, output mode first for tensors
    nnz: int  # nonzeros of the sparse operand (== volume when dense)
    fibers: int  # nonempty (i, j) fibers (tensor kernels)
    out_rows: int  # nonempty output rows/slices
    rank: int  # F (MTTKRP/SpMM cols); F1 for TTMc
    rank2: int  # F2 for TTMc, else 0
    dense: bool

    @property
    def spec(self) -> KernelSpec:
        """The kernel's family in the kernel table."""
        return kernel_spec(self.kernel)

    @property
    def ops(self) -> int:
        """Algorithmic operation count (operand-factored forms)."""
        return self.spec.ops(self.nnz, self.fibers, self.rank, self.rank2)

    @property
    def factor_bytes(self) -> int:
        """Bytes of the dense operand matrices (one full read)."""
        name = self.spec.name
        if name == "mttkrp":
            return (self.dims[1] + self.dims[2]) * self.rank * 4
        if name == "ttmc":
            return (self.dims[1] * self.rank + self.dims[2] * self.rank2) * 4
        if name == "spmm":
            return self.dims[1] * self.rank * 4
        return self.dims[1] * 4

    @property
    def output_bytes(self) -> int:
        """Bytes of one full output write."""
        name = self.spec.name
        if name == "ttmc":
            return self.out_rows * self.rank * self.rank2 * 4
        if name == "spmv":
            return self.out_rows * 4
        return self.out_rows * self.rank * 4

    @property
    def sparse_bytes(self) -> int:
        """Bytes of one streaming read of the sparse operand (CSR/CSF-like:
        value plus ~1.5 index words per nonzero)."""
        if self.dense:
            return self.nnz * 4
        return self.nnz * 10


@dataclass(frozen=True)
class BaselineResult:
    """Time/energy estimate of one kernel on one baseline platform."""

    platform: str
    kernel: str
    time_s: float
    energy_j: float
    ops: int
    bytes_moved: int

    @property
    def gops(self) -> float:
        if self.time_s <= 0:
            return 0.0
        return self.ops / self.time_s / 1.0e9


def tensor_workload(
    kernel: str,
    tensor: Union[SparseTensor, np.ndarray],
    rank: int,
    rank2: int = 0,
    mode: int = 0,
    store=None,
) -> WorkloadStats:
    """Build stats for MTTKRP (``rank``) or TTMc (``rank``, ``rank2``),
    named by any name of the family.

    ``store`` (an :class:`repro.artifacts.ArtifactStore`) memoizes the
    extraction — the unique-fiber scan is the expensive part — keyed on the
    operand's content fingerprint and the arguments.
    """
    if kernel_spec(kernel).order != 3:
        raise KernelError(f"tensor_workload got {kernel!r}")
    if store is not None:
        return store.get(
            "workload",
            ("tensor", kernel, rank, rank2, mode, tensor),
            lambda: tensor_workload(kernel, tensor, rank, rank2, mode),
        )
    if isinstance(tensor, SparseTensor):
        rest = [m for m in range(3) if m != mode]
        perm = tensor if mode == 0 else tensor.permute_modes([mode] + rest)
        coords = perm.coords
        fibers = count_distinct(coords[:, 0] * perm.shape[1] + coords[:, 1])
        out_rows = count_distinct(coords[:, 0])
        return WorkloadStats(
            kernel=kernel,
            dims=perm.shape,
            nnz=perm.nnz,
            fibers=fibers,
            out_rows=out_rows,
            rank=rank,
            rank2=rank2,
            dense=False,
        )
    shape = tensor.shape
    rest = [m for m in range(3) if m != mode]
    dims = (shape[mode], shape[rest[0]], shape[rest[1]])
    volume = dims[0] * dims[1] * dims[2]
    return WorkloadStats(
        kernel=kernel,
        dims=dims,
        nnz=volume,
        fibers=dims[0] * dims[1],
        out_rows=dims[0],
        rank=rank,
        rank2=rank2,
        dense=True,
    )


def matrix_workload(
    kernel: str,
    a: Union[CSRMatrix, COOMatrix, np.ndarray],
    ncols: int = 1,
    store=None,
) -> WorkloadStats:
    """Build stats for SpMM/GEMM (``ncols``) or SpMV/GEMV, named by any
    name of the family.

    ``store`` memoizes the extraction like :func:`tensor_workload`.
    """
    if kernel_spec(kernel).order != 2:
        raise KernelError(f"matrix_workload got {kernel!r}")
    if store is not None:
        return store.get(
            "workload",
            ("matrix", kernel, ncols, a),
            lambda: matrix_workload(kernel, a, ncols),
        )
    if isinstance(a, np.ndarray):
        rows, cols = a.shape
        return WorkloadStats(
            kernel=kernel,
            dims=(rows, cols),
            nnz=rows * cols,
            fibers=0,
            out_rows=rows,
            rank=ncols,
            rank2=0,
            dense=True,
        )
    coo = a.to_coo() if isinstance(a, CSRMatrix) else a
    out_rows = count_distinct(coo.rows)
    return WorkloadStats(
        kernel=kernel,
        dims=coo.shape,
        nnz=coo.nnz,
        fibers=0,
        out_rows=out_rows,
        rank=ncols,
        rank2=0,
        dense=False,
    )
