"""Structure-preserving synthetic sparse data generators."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.tensor import SparseTensor
from repro.util.arrays import sorted_distinct
from repro.util.errors import ShapeError
from repro.util.rng import derive_seed, make_rng


def _unique_linear_sample(
    rng: np.random.Generator, space: int, count: int
) -> np.ndarray:
    """Sample ``count`` distinct linear indices from ``[0, space)``.

    Rejection-based so it works when ``space`` exceeds what
    ``rng.choice(..., replace=False)`` can materialize.
    """
    if count > space:
        raise ShapeError(f"cannot place {count} nonzeros in {space} cells")
    if space <= 8 * count or space <= 1 << 22:
        return rng.choice(space, size=count, replace=False).astype(np.int64)
    picked = sorted_distinct(
        np.sort(rng.integers(0, space, size=int(count * 1.2)))
    )[0]
    while picked.shape[0] < count:
        extra = rng.integers(0, space, size=count)
        picked = sorted_distinct(np.sort(np.concatenate([picked, extra])))[0]
    rng.shuffle(picked)
    return np.sort(picked[:count])


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalized Zipf(alpha) weights over ``n`` items."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


def random_sparse_tensor(
    shape: Sequence[int],
    nnz: int,
    skew: float = 1.0,
    seed: int = 0,
) -> SparseTensor:
    """A 3-d sparse tensor with Zipf-distributed mode-0 slice sizes.

    ``skew`` is the Zipf exponent of nonzeros-per-slice (web-scale tensors
    like NELL-2 and Netflix have heavy slice skew, which is what stresses
    the CISS load balancer); ``skew=0`` gives uniform slices. Indices
    within a slice are uniform.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3:
        raise ShapeError("random_sparse_tensor builds 3-d tensors")
    i_dim, j_dim, k_dim = shape
    if nnz > i_dim * j_dim * k_dim:
        raise ShapeError(f"cannot place {nnz} nonzeros in {shape}")
    rng = make_rng(derive_seed(seed, "tensor", shape, nnz, skew))
    weights = _zipf_weights(i_dim, skew) if skew > 0 else np.full(i_dim, 1.0 / i_dim)
    # Shuffle slice identities so the heavy slices are not the low indices.
    slice_order = rng.permutation(i_dim)
    counts = rng.multinomial(nnz, weights)
    counts = counts[np.argsort(slice_order, kind="stable")]
    counts = np.minimum(counts, j_dim * k_dim)
    deficit = nnz - int(counts.sum())
    while deficit > 0:  # redistribute clipped mass
        room = j_dim * k_dim - counts
        open_slices = np.flatnonzero(room > 0)
        add = rng.multinomial(deficit, np.full(open_slices.size, 1.0 / open_slices.size))
        counts[open_slices] += np.minimum(add, room[open_slices])
        deficit = nnz - int(counts.sum())
    i_idx = np.repeat(np.arange(i_dim), counts)
    jk = np.concatenate(
        [
            _unique_linear_sample(rng, j_dim * k_dim, int(c))
            for c in counts
            if c > 0
        ]
    )
    coords = np.stack([i_idx, jk // k_dim, jk % k_dim], axis=1)
    values = rng.standard_normal(nnz)
    values[values == 0.0] = 1.0
    return SparseTensor(shape, coords, values)


def poisson3d_tensor(n: int, nnz: int, seed: int = 0) -> SparseTensor:
    """A banded n x n x n tensor emulating a 3-d Poisson/FEM discretization.

    Nonzeros cluster near the (i ~ j ~ k) diagonal, giving the dense-ish,
    well-balanced structure of the paper's poisson3D tensor.
    """
    rng = make_rng(derive_seed(seed, "poisson3d", n, nnz))
    # Band half-width chosen so the band holds ~2x the requested nonzeros.
    band = max(2, int(np.ceil(np.sqrt(nnz / (2.0 * n)))))
    i = rng.integers(0, n, size=int(nnz * 1.6))
    j = i + rng.integers(-band, band + 1, size=i.shape[0])
    k = i + rng.integers(-band, band + 1, size=i.shape[0])
    ok = (j >= 0) & (j < n) & (k >= 0) & (k < n)
    i, j, k = i[ok], j[ok], k[ok]
    lin = (i * n + j) * n + k
    lin = sorted_distinct(np.sort(lin))[0]
    while lin.shape[0] < nnz:
        i2 = rng.integers(0, n, size=nnz)
        j2 = np.clip(i2 + rng.integers(-band, band + 1, size=nnz), 0, n - 1)
        k2 = np.clip(i2 + rng.integers(-band, band + 1, size=nnz), 0, n - 1)
        lin = sorted_distinct(
            np.sort(np.concatenate([lin, (i2 * n + j2) * n + k2]))
        )[0]
    rng.shuffle(lin)
    lin = lin[:nnz]
    coords = np.stack([lin // (n * n), (lin // n) % n, lin % n], axis=1)
    values = rng.standard_normal(nnz)
    values[values == 0.0] = 1.0
    return SparseTensor((n, n, n), coords, values)


def pruned_weight_matrix(
    rows: int, cols: int, density: float, seed: int = 0
) -> COOMatrix:
    """A magnitude-pruned CNN weight matrix: uniform mask, Gaussian values."""
    rng = make_rng(derive_seed(seed, "weights", rows, cols, density))
    nnz = max(1, int(round(rows * cols * density)))
    lin = _unique_linear_sample(rng, rows * cols, nnz)
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 1.0
    return COOMatrix((rows, cols), lin // cols, lin % cols, vals)


def graph_matrix(
    n: int, nnz: int, power: float = 1.2, seed: int = 0
) -> COOMatrix:
    """An n x n adjacency-like matrix with power-law out-degrees."""
    rng = make_rng(derive_seed(seed, "graph", n, nnz, power))
    weights = _zipf_weights(n, power)
    rows_id = rng.permutation(n)
    counts = rng.multinomial(nnz, weights)[np.argsort(rows_id, kind="stable")]
    counts = np.minimum(counts, n)
    deficit = nnz - int(counts.sum())
    while deficit > 0:
        room = n - counts
        open_rows = np.flatnonzero(room > 0)
        add = rng.multinomial(deficit, np.full(open_rows.size, 1.0 / open_rows.size))
        counts[open_rows] += np.minimum(add, room[open_rows])
        deficit = nnz - int(counts.sum())
    rows = np.repeat(np.arange(n), counts)
    cols = np.concatenate(
        [rng.choice(n, size=int(c), replace=False) for c in counts if c > 0]
    )
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 1.0
    return COOMatrix((n, n), rows, cols, vals)


def banded_matrix(n: int, nnz: int, seed: int = 0) -> COOMatrix:
    """An n x n banded matrix emulating FEM/EM discretizations."""
    rng = make_rng(derive_seed(seed, "banded", n, nnz))
    band = max(1, int(np.ceil(nnz / (2.0 * n))))
    rows = rng.integers(0, n, size=int(nnz * 1.6))
    cols = rows + rng.integers(-band, band + 1, size=rows.shape[0])
    ok = (cols >= 0) & (cols < n)
    lin = sorted_distinct(np.sort(rows[ok] * n + cols[ok]))[0]
    while lin.shape[0] < nnz:
        r2 = rng.integers(0, n, size=nnz)
        c2 = np.clip(r2 + rng.integers(-band, band + 1, size=nnz), 0, n - 1)
        lin = sorted_distinct(np.sort(np.concatenate([lin, r2 * n + c2])))[0]
    rng.shuffle(lin)
    lin = lin[:nnz]
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 1.0
    return COOMatrix((n, n), lin // n, lin % n, vals)


def uniform_matrix(
    shape: Tuple[int, int], density: float, seed: int = 0
) -> COOMatrix:
    """A uniformly random sparse matrix (the Fig. 13 density sweep)."""
    rows, cols = int(shape[0]), int(shape[1])
    rng = make_rng(derive_seed(seed, "uniform", rows, cols, density))
    nnz = max(1, int(round(rows * cols * density)))
    lin = _unique_linear_sample(rng, rows * cols, nnz)
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 1.0
    return COOMatrix((rows, cols), lin // cols, lin % cols, vals)


def random_sparse_tensor_nd(
    shape: Sequence[int],
    nnz: int,
    skew: float = 1.0,
    seed: int = 0,
) -> SparseTensor:
    """An N-dimensional sparse tensor with Zipf mode-0 slice sizes.

    The N-d analogue of :func:`random_sparse_tensor`, used for the 4-d
    FROSTT-style datasets that exercise the N-d CISS generalization.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ShapeError("need at least 2 modes")
    total = 1
    for s_ in shape:
        total *= s_
    if nnz > total:
        raise ShapeError(f"cannot place {nnz} nonzeros in {shape}")
    rng = make_rng(derive_seed(seed, "tensor_nd", shape, nnz, skew))
    i_dim = shape[0]
    rest = shape[1:]
    rest_space = total // i_dim
    weights = _zipf_weights(i_dim, skew) if skew > 0 else np.full(i_dim, 1.0 / i_dim)
    slice_order = rng.permutation(i_dim)
    counts = rng.multinomial(nnz, weights)[np.argsort(slice_order, kind="stable")]
    counts = np.minimum(counts, rest_space)
    deficit = nnz - int(counts.sum())
    while deficit > 0:
        room = rest_space - counts
        open_slices = np.flatnonzero(room > 0)
        add = rng.multinomial(
            deficit, np.full(open_slices.size, 1.0 / open_slices.size)
        )
        counts[open_slices] += np.minimum(add, room[open_slices])
        deficit = nnz - int(counts.sum())
    i_idx = np.repeat(np.arange(i_dim), counts)
    lin = np.concatenate(
        [_unique_linear_sample(rng, rest_space, int(c)) for c in counts if c > 0]
    )
    cols = [i_idx]
    remaining = lin
    for m in range(len(rest) - 1):
        stride = 1
        for s_ in rest[m + 1:]:
            stride *= s_
        cols.append(remaining // stride)
        remaining = remaining % stride
    cols.append(remaining)
    coords = np.stack(cols, axis=1)
    values = rng.standard_normal(nnz)
    values[values == 0.0] = 1.0
    return SparseTensor(shape, coords, values)
