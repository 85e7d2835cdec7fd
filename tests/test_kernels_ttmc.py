"""Tests for all TTMc variants against einsum ground truth."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ttmc_dense,
    ttmc_dense_factored,
    ttmc_flops,
    ttmc_sparse,
    ttmc_sparse_factored,
)
from repro.tensor import SparseTensor
from repro.util.errors import KernelError, ShapeError

from tests.conftest import random_tensor


def reference_3d(dense, facs, mode):
    rest = [m for m in range(3) if m != mode]
    return np.einsum(
        "ijk,jx,ky->ixy", np.transpose(dense, [mode] + rest), facs[0], facs[1]
    )


ALL_VARIANTS = ["dense", "dense_factored", "sparse", "sparse_factored"]


def run_variant(variant, tensor, facs, mode):
    dense = tensor.to_dense()
    if variant == "dense":
        return ttmc_dense(dense, facs, mode)
    if variant == "dense_factored":
        return ttmc_dense_factored(dense, facs, mode)
    if variant == "sparse":
        return ttmc_sparse(tensor, facs, mode)
    return ttmc_sparse_factored(tensor, facs, mode)


class TestCorrectness3D:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_einsum(self, rng, variant, mode):
        t = random_tensor(seed=7)
        rest = [m for m in range(3) if m != mode]
        facs = [
            rng.standard_normal((t.shape[rest[0]], 3)),
            rng.standard_normal((t.shape[rest[1]], 4)),
        ]
        out = run_variant(variant, t, facs, mode)
        assert out.shape == (t.shape[mode], 3, 4)
        assert np.allclose(out, reference_3d(t.to_dense(), facs, mode))

    def test_unequal_ranks_allowed(self, rng):
        # Unlike MTTKRP, TTMc factor ranks are independent.
        t = random_tensor(seed=8)
        facs = [
            rng.standard_normal((t.shape[1], 2)),
            rng.standard_normal((t.shape[2], 7)),
        ]
        out = ttmc_sparse(t, facs, 0)
        assert out.shape == (t.shape[0], 2, 7)

    def test_empty_tensor(self, rng):
        t = SparseTensor.empty((4, 3, 2))
        facs = [rng.random((3, 2)), rng.random((2, 2))]
        assert np.allclose(ttmc_sparse(t, facs, 0), 0.0)
        assert np.allclose(ttmc_sparse_factored(t, facs, 0), 0.0)


class TestFactoredMemory:
    def test_peak_stays_below_the_outer_product(self, rng):
        # Few slices, thousands of fibers: the (fibers, F1·F2) outer product
        # B(j,:) ⊗ TSR would outweigh the output and every per-fiber array.
        t = random_tensor(shape=(8, 600, 40), density=0.05, seed=9)
        facs = [rng.standard_normal((600, 16)), rng.standard_normal((40, 16))]
        ttmc_sparse_factored(t, facs, 0)
        fibers = len({(i, j) for i, j, _ in t.coords})
        assert fibers > 3000
        tracemalloc.start()
        try:
            ttmc_sparse_factored(t, facs, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 16 * fibers * 8


class TestHigherDims:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_4d(self, rng, mode):
        dense = (rng.random((3, 4, 2, 5)) < 0.4) * rng.standard_normal((3, 4, 2, 5))
        t = SparseTensor.from_dense(dense)
        rest = [m for m in range(4) if m != mode]
        ranks = [2, 3, 2]
        facs = [
            rng.standard_normal((dense.shape[m], r)) for m, r in zip(rest, ranks)
        ]
        sub = "abcd"
        outs = "xyz"
        spec = ",".join(f"{sub[m]}{outs[p]}" for p, m in enumerate(rest))
        ref = np.einsum(f"{sub},{spec}->{sub[mode]}xyz", dense, *facs)
        assert np.allclose(ttmc_dense(dense, facs, mode), ref)
        assert np.allclose(ttmc_dense_factored(dense, facs, mode), ref)
        assert np.allclose(ttmc_sparse(t, facs, mode), ref)

    def test_factored_sparse_requires_3d(self, rng):
        t = SparseTensor.from_dense(rng.random((2, 2, 2, 2)))
        facs = [rng.random((2, 2))] * 3
        with pytest.raises(KernelError):
            ttmc_sparse_factored(t, facs, 0)


class TestValidation:
    def test_wrong_factor_count(self, rng, small_tensor):
        with pytest.raises(KernelError):
            ttmc_sparse(small_tensor, [rng.random((small_tensor.shape[1], 3))], 0)

    def test_wrong_rows(self, rng, small_tensor):
        facs = [rng.random((99, 3)), rng.random((small_tensor.shape[2], 3))]
        with pytest.raises(ShapeError):
            ttmc_sparse(small_tensor, facs, 0)


class TestFlops:
    def test_factored_fewer_than_naive(self):
        naive = ttmc_flops((50, 40, 30), (16, 16), factored=False)
        fact = ttmc_flops((50, 40, 30), (16, 16), factored=True)
        assert fact < naive

    def test_sparse_scaling(self):
        a = ttmc_flops((50, 40, 30), (8, 8), nnz=100)
        b = ttmc_flops((50, 40, 30), (8, 8), nnz=300)
        assert b == 3 * a


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 500), mode=st.integers(0, 2),
    f1=st.integers(1, 4), f2=st.integers(1, 4),
)
def test_property_all_variants_agree(seed, mode, f1, f2):
    rng = np.random.default_rng(seed)
    t = random_tensor(shape=(6, 5, 4), density=0.3, seed=seed)
    rest = [m for m in range(3) if m != mode]
    facs = [
        rng.standard_normal((t.shape[rest[0]], f1)),
        rng.standard_normal((t.shape[rest[1]], f2)),
    ]
    results = [run_variant(v, t, facs, mode) for v in ALL_VARIANTS]
    for other in results[1:]:
        assert np.allclose(results[0], other)
