"""The SF3 compute pattern (Section 3, Eq. 9) as an executable abstraction.

    fibers_out = sum_{D1} fiber1  op  sum_{D0} (scalar * fiber0)

:class:`SF3Spec` captures one kernel instance as the hardware sees it: an
iteration space of output groups (slices/rows), each a set of D1 points, each
of which owns a set of D0 points carrying a scalar; plus the two fiber
sources and the combining ``op`` (Hadamard, Kronecker, or none). The
iteration space is stored CSR-style, as segment pointers over flat index and
scalar arrays, and the builders fill it without any per-point Python
objects. Table 1's eight kernels are produced by the ``sf3_spec_*``
builders, and :func:`execute_sf3` evaluates any spec in exactly the
accelerator's TSR-then-OSR order. Tests assert the generic executor matches
every direct kernel, which is the paper's central claim: one pattern covers
them all.

The executor's ``np.add.at`` folds sum each D1 point's D0 terms, then each
group's D1 terms, left to right from zero. Golden digests pin its output
bytes (``SF3_GOLDEN`` in ``tests/test_encoder_fastpath.py``). They were
computed on a reference layout, since deleted, that held one Python object
per domain point and summed point by point in that same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.kernels.spec import kernel_spec
from repro.tensor import SparseTensor
from repro.util.errors import KernelError
from repro.util.validation import check_mode


@dataclass
class SF3Spec:
    """One kernel instance expressed in the SF3 pattern.

    The iteration space is stored as three flat levels:

    - ``group_ids[g]`` — output index of group ``g``; its D1 points are
      ``group_ptr[g]:group_ptr[g+1]``.
    - ``d1_idx[p]`` — fiber1 index of D1 point ``p``; its D0 points are
      ``d1_ptr[p]:d1_ptr[p+1]``. Kernels without ``fiber1``
      (SpMM/SpMV/GEMM/GEMV) have one D1 point per group, with index ``-1``.
    - ``d0_idx[q]`` / ``d0_val[q]`` — fiber0 index and scalar of D0 point
      ``q``.

    The remaining attributes:

    - ``kernel`` — human-readable kernel name (``"mttkrp"`` etc.), for
      reporting.
    - ``fiber0`` / ``fiber1`` — dense fiber sources: ``fiber0[d0]`` and
      ``fiber1[d1]`` are the fibers of Eq. (9); ``fiber1`` is ``None``
      when not applicable.
    - ``op`` — ``"hadamard"``, ``"kron"`` or ``None`` (Table 1's op
      column).
    - ``out_shape`` — shape of the full output (the first axis indexes the
      output groups).
    - ``flop_count`` — the kernel instance's arithmetic operation count
      (its family's :attr:`~repro.kernels.spec.KernelSpec.ops` rule).
    """

    kernel: str
    group_ids: np.ndarray
    group_ptr: np.ndarray
    d1_idx: np.ndarray
    d1_ptr: np.ndarray
    d0_idx: np.ndarray
    d0_val: np.ndarray
    fiber0: np.ndarray
    fiber1: Optional[np.ndarray]
    op: Optional[str]
    out_shape: Tuple[int, ...]
    flop_count: int = field(default=0)

    def __post_init__(self) -> None:
        if self.op not in (None, "hadamard", "kron"):
            raise KernelError(f"unknown op {self.op!r}")
        if (self.op is None) != (self.fiber1 is None):
            raise KernelError("fiber1 must be present exactly when op is set")
        self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
        self.group_ptr = np.asarray(self.group_ptr, dtype=np.int64)
        self.d1_idx = np.asarray(self.d1_idx, dtype=np.int64)
        self.d1_ptr = np.asarray(self.d1_ptr, dtype=np.int64)
        self.d0_idx = np.asarray(self.d0_idx, dtype=np.int64)
        self.d0_val = np.asarray(self.d0_val, dtype=np.float64)
        if self.group_ptr.shape != (self.group_ids.shape[0] + 1,):
            raise KernelError("group_ptr must have num_groups + 1 entries")
        if self.d1_ptr.shape != (self.d1_idx.shape[0] + 1,):
            raise KernelError("d1_ptr must have num_d1 + 1 entries")
        if self.d0_idx.shape != self.d0_val.shape:
            raise KernelError("d0_idx and d0_val must align")
        for name, ptr, count in (
            ("group_ptr", self.group_ptr, self.d1_idx.shape[0]),
            ("d1_ptr", self.d1_ptr, self.d0_idx.shape[0]),
        ):
            if ptr[0] != 0 or ptr[-1] != count or np.any(np.diff(ptr) < 0):
                raise KernelError(f"{name} is not a valid segment pointer array")

    @property
    def num_groups(self) -> int:
        return int(self.group_ids.shape[0])

    @property
    def num_d1(self) -> int:
        return int(self.d1_idx.shape[0])


def execute_sf3(spec: SF3Spec) -> np.ndarray:
    """Evaluate an SF3 spec in the accelerator's dataflow order.

    Per output group: for each D1 point, the inner sum over D0 accumulates
    ``scalar * fiber0`` (the TSR contents), then ``fiber1 op TSR`` (or TSR
    itself when op is None) accumulates into the group's output (the OSR).

    Both accumulation levels use ``np.add.at``, which adds in index order:
    a left-to-right floating-point fold starting from zeros. (A
    ``reduceat`` would be faster still but sums pairwise, changing the
    rounding.) The elementwise products are ``scalar * fiber0``,
    ``fiber1 * TSR`` (Hadamard) and the broadcast outer product
    (Kronecker).
    """
    out = np.zeros(spec.out_shape, dtype=np.float64)
    if spec.num_d1 == 0:
        return out
    f0 = np.asarray(spec.fiber0, dtype=np.float64)
    # TSR fill: per-D1 inner sums of scalar * fiber0.
    d1_of_d0 = np.repeat(
        np.arange(spec.num_d1, dtype=np.int64), np.diff(spec.d1_ptr)
    )
    contrib = (
        spec.d0_val * f0[spec.d0_idx]
        if f0.ndim == 1
        else spec.d0_val[:, None] * f0[spec.d0_idx]
    )
    tsr = np.zeros((spec.num_d1,) + f0.shape[1:], dtype=np.float64)
    np.add.at(tsr, d1_of_d0, contrib)
    # OSR drain: per-group sums of fiber1 op TSR.
    if spec.op is None:
        terms = tsr
    else:
        f1 = np.asarray(spec.fiber1, dtype=np.float64)[spec.d1_idx]
        if spec.op == "hadamard":
            terms = f1 * tsr
        else:  # kron: row-wise outer products
            terms = f1[:, :, None] * tsr[:, None, :]
    group_of_d1 = np.repeat(
        np.arange(spec.num_groups, dtype=np.int64), np.diff(spec.group_ptr)
    )
    np.add.at(out, spec.group_ids[group_of_d1], terms)
    return out


def _tensor_domains(
    tensor: SparseTensor, mode: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tensor iteration space: groups are slices ``i``, D1 points the
    nonempty fibers ``(i, j)``, D0 points their nonzeros ``(k, value)``.

    The mode-permuted canonical order makes groups (``i`` runs) and D1
    points (``(i, j)`` runs) contiguous, so run-boundary masks produce the
    domains without any per-nonzero Python.
    """
    rest = [m for m in range(3) if m != mode]
    perm = tensor.permute_modes([mode] + rest)
    coords, vals = perm.coords, perm.values
    n = perm.nnz
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        zero_ptr = np.zeros(1, dtype=np.int64)
        return (
            empty, zero_ptr, empty.copy(), zero_ptr.copy(),
            empty.copy(), np.empty(0, dtype=np.float64),
        )
    i_col, j_col = coords[:, 0], coords[:, 1]
    new_i = np.empty(n, dtype=bool)
    new_i[0] = True
    np.not_equal(i_col[1:], i_col[:-1], out=new_i[1:])
    new_d1 = new_i.copy()
    new_d1[1:] |= j_col[1:] != j_col[:-1]
    d1_starts = np.flatnonzero(new_d1)
    d1_ptr = np.append(d1_starts, n)
    d1_idx = j_col[d1_starts]
    group_first = np.flatnonzero(new_i[d1_starts])
    group_ptr = np.append(group_first, d1_starts.shape[0])
    group_ids = i_col[d1_starts[group_first]]
    return group_ids, group_ptr, d1_idx, d1_ptr, coords[:, 2].copy(), vals


def _matrix_domains(
    a: CSRMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonempty-row iteration space for SpMM/SpMV.

    One D1 point per nonempty row. Empty rows occupy zero-length CSR
    segments, so consecutive nonempty rows' data is adjacent and the row
    starts double as the D0 segment pointers.
    """
    nz_rows = np.flatnonzero(np.diff(a.indptr)).astype(np.int64)
    group_ptr = np.arange(nz_rows.shape[0] + 1, dtype=np.int64)
    d1_idx = np.full(nz_rows.shape[0], -1, dtype=np.int64)
    d1_ptr = np.append(a.indptr[nz_rows], a.nnz).astype(np.int64)
    if nz_rows.shape[0] == 0:
        d1_ptr = np.zeros(1, dtype=np.int64)
    return nz_rows, group_ptr, d1_idx, d1_ptr


def sf3_spec_mttkrp(
    tensor: SparseTensor,
    mat_b: np.ndarray,
    mat_c: np.ndarray,
    mode: int = 0,
) -> SF3Spec:
    """Table 1 row (Sp/D)MTTKRP: fiber1=B rows, op=◦, fiber0=C rows.

    ``mat_b`` / ``mat_c`` are the factors for the first / second remaining
    mode in increasing mode order (matching :func:`repro.kernels.mttkrp`).
    """
    if tensor.ndim != 3:
        raise KernelError("SF3 MTTKRP spec is defined for 3-d tensors")
    check_mode(mode, 3)
    mat_b = np.asarray(mat_b, dtype=np.float64)
    mat_c = np.asarray(mat_c, dtype=np.float64)
    rank = mat_b.shape[1]
    gids, gptr, d1i, d1p, d0i, d0v = _tensor_domains(tensor, mode)
    spec = kernel_spec("mttkrp")
    return SF3Spec(
        kernel=spec.name,
        group_ids=gids, group_ptr=gptr,
        d1_idx=d1i, d1_ptr=d1p, d0_idx=d0i, d0_val=d0v,
        fiber0=mat_c,
        fiber1=mat_b,
        op="hadamard",
        out_shape=(tensor.shape[mode], rank),
        flop_count=spec.ops(tensor.nnz, int(d1i.shape[0]), rank, 0),
    )


def sf3_spec_ttmc(
    tensor: SparseTensor,
    mat_b: np.ndarray,
    mat_c: np.ndarray,
    mode: int = 0,
) -> SF3Spec:
    """Table 1 row (Sp/D)TTMc: same domains as MTTKRP but op=⊗."""
    if tensor.ndim != 3:
        raise KernelError("SF3 TTMc spec is defined for 3-d tensors")
    check_mode(mode, 3)
    mat_b = np.asarray(mat_b, dtype=np.float64)
    mat_c = np.asarray(mat_c, dtype=np.float64)
    f1, f2 = mat_b.shape[1], mat_c.shape[1]
    gids, gptr, d1i, d1p, d0i, d0v = _tensor_domains(tensor, mode)
    spec = kernel_spec("ttmc")
    return SF3Spec(
        kernel=spec.name,
        group_ids=gids, group_ptr=gptr,
        d1_idx=d1i, d1_ptr=d1p, d0_idx=d0i, d0_val=d0v,
        fiber0=mat_c,
        fiber1=mat_b,
        op="kron",
        out_shape=(tensor.shape[mode], f1, f2),
        flop_count=spec.ops(tensor.nnz, int(d1i.shape[0]), f1, f2),
    )


def sf3_spec_spmm(a: CSRMatrix, mat_b: np.ndarray) -> SF3Spec:
    """Table 1 row SpMM/GEMM: no fiber1/op; D0 = nonzeros of row i."""
    mat_b = np.asarray(mat_b, dtype=np.float64)
    gids, gptr, d1i, d1p = _matrix_domains(a)
    spec = kernel_spec("spmm")
    return SF3Spec(
        kernel=spec.name,
        group_ids=gids, group_ptr=gptr, d1_idx=d1i, d1_ptr=d1p,
        d0_idx=a.indices.astype(np.int64, copy=False),
        d0_val=a.data.astype(np.float64, copy=False),
        fiber0=mat_b,
        fiber1=None,
        op=None,
        out_shape=(a.shape[0], mat_b.shape[1]),
        flop_count=spec.ops(a.nnz, 0, mat_b.shape[1], 0),
    )


def sf3_spec_spmv(a: CSRMatrix, vec: np.ndarray) -> SF3Spec:
    """Table 1 row SpMV/GEMV: fiber0 degenerates to vector elements."""
    vec = np.asarray(vec, dtype=np.float64)
    gids, gptr, d1i, d1p = _matrix_domains(a)
    spec = kernel_spec("spmv")
    return SF3Spec(
        kernel=spec.name,
        group_ids=gids, group_ptr=gptr, d1_idx=d1i, d1_ptr=d1p,
        d0_idx=a.indices.astype(np.int64, copy=False),
        d0_val=a.data.astype(np.float64, copy=False),
        fiber0=vec,
        fiber1=None,
        op=None,
        out_shape=(a.shape[0],),
        flop_count=spec.ops(a.nnz, 0, 1, 0),
    )
