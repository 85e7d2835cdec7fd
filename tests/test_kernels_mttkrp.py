"""Tests for all MTTKRP variants against einsum ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    mttkrp_dense,
    mttkrp_dense_factored,
    mttkrp_flops,
    mttkrp_sparse,
    mttkrp_sparse_factored,
)
from repro.kernels.spec import kernel_spec
from repro.tensor import SparseTensor
from repro.util.errors import KernelError, ShapeError

from tests.conftest import random_tensor


def reference_3d(dense, facs, mode):
    rest = [m for m in range(3) if m != mode]
    return np.einsum(
        "ijk,jf,kf->if", np.transpose(dense, [mode] + rest), facs[0], facs[1]
    )


ALL_VARIANTS = ["dense", "dense_factored", "sparse", "sparse_factored"]


def run_variant(variant, tensor, facs, mode):
    dense = tensor.to_dense()
    if variant == "dense":
        return mttkrp_dense(dense, facs, mode)
    if variant == "dense_factored":
        return mttkrp_dense_factored(dense, facs, mode)
    if variant == "sparse":
        return mttkrp_sparse(tensor, facs, mode)
    return mttkrp_sparse_factored(tensor, facs, mode)


class TestCorrectness3D:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_einsum(self, rng, variant, mode):
        t = random_tensor(seed=42)
        rest = [m for m in range(3) if m != mode]
        facs = [rng.standard_normal((t.shape[m], 5)) for m in rest]
        out = run_variant(variant, t, facs, mode)
        assert np.allclose(out, reference_3d(t.to_dense(), facs, mode))

    def test_rank_one(self, rng):
        t = random_tensor(seed=1)
        facs = [rng.standard_normal((t.shape[1], 1)),
                rng.standard_normal((t.shape[2], 1))]
        for variant in ALL_VARIANTS:
            out = run_variant(variant, t, facs, 0)
            assert out.shape == (t.shape[0], 1)

    def test_empty_tensor(self, rng):
        t = SparseTensor.empty((4, 3, 2))
        facs = [rng.random((3, 4)), rng.random((2, 4))]
        assert np.allclose(mttkrp_sparse(t, facs, 0), 0.0)
        assert np.allclose(mttkrp_sparse_factored(t, facs, 0), 0.0)


class TestHigherDims:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_4d(self, rng, mode):
        dense = (rng.random((4, 3, 5, 2)) < 0.4) * rng.standard_normal((4, 3, 5, 2))
        t = SparseTensor.from_dense(dense)
        rest = [m for m in range(4) if m != mode]
        facs = [rng.standard_normal((dense.shape[m], 3)) for m in rest]
        sub = "abcd"
        spec = ",".join(f"{sub[m]}f" for m in rest)
        ref = np.einsum(f"{sub},{spec}->{sub[mode]}f", dense, *facs)
        assert np.allclose(mttkrp_dense(dense, facs, mode), ref)
        assert np.allclose(mttkrp_dense_factored(dense, facs, mode), ref)
        assert np.allclose(mttkrp_sparse(t, facs, mode), ref)

    def test_factored_sparse_requires_3d(self, rng):
        dense = rng.random((2, 2, 2, 2))
        t = SparseTensor.from_dense(dense)
        facs = [rng.random((2, 2))] * 3
        with pytest.raises(KernelError):
            mttkrp_sparse_factored(t, facs, 0)


class TestValidation:
    def test_wrong_factor_count(self, rng, small_tensor):
        facs = [rng.random((small_tensor.shape[1], 4))]
        with pytest.raises(KernelError):
            mttkrp_sparse(small_tensor, facs, 0)

    def test_wrong_factor_rows(self, rng, small_tensor):
        facs = [rng.random((99, 4)), rng.random((small_tensor.shape[2], 4))]
        with pytest.raises(ShapeError):
            mttkrp_sparse(small_tensor, facs, 0)

    def test_mismatched_ranks(self, rng, small_tensor):
        facs = [
            rng.random((small_tensor.shape[1], 4)),
            rng.random((small_tensor.shape[2], 5)),
        ]
        with pytest.raises(ShapeError):
            mttkrp_sparse(small_tensor, facs, 0)

    def test_bad_mode(self, rng, small_tensor):
        facs = [rng.random((small_tensor.shape[1], 4)),
                rng.random((small_tensor.shape[2], 4))]
        with pytest.raises(ShapeError):
            mttkrp_sparse(small_tensor, facs, 5)


class TestFlops:
    def test_factored_fewer_than_naive(self):
        # The Eq. 2 payoff: I*J*F*(K+1) multiplies vs 2*I*J*K*F.
        naive = mttkrp_flops((50, 40, 30), 16, factored=False)
        fact = mttkrp_flops((50, 40, 30), 16, factored=True)
        assert fact < naive

    def test_factored_count_folds_each_fiber_once(self):
        # Eq. 2: I*J*F*(K+1) multiplies, each with its add; the fiber fold
        # is one Hadamard per (i, j) fiber, as kernel_spec's op rule says.
        fact = mttkrp_flops((50, 40, 30), 16, factored=True)
        assert fact == 2 * 50 * 40 * 16 * (30 + 1) == 1_984_000
        assert fact == kernel_spec("mttkrp").ops(50 * 40 * 30, 50 * 40, 16, 0)

    def test_sparse_counts_scale_with_nnz(self):
        a = mttkrp_flops((50, 40, 30), 16, nnz=100)
        b = mttkrp_flops((50, 40, 30), 16, nnz=200)
        assert b == 2 * a


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), mode=st.integers(0, 2), rank=st.integers(1, 6))
def test_property_all_variants_agree(seed, mode, rank):
    rng = np.random.default_rng(seed)
    t = random_tensor(shape=(7, 6, 5), density=0.3, seed=seed)
    rest = [m for m in range(3) if m != mode]
    facs = [rng.standard_normal((t.shape[m], rank)) for m in rest]
    results = [run_variant(v, t, facs, mode) for v in ALL_VARIANTS]
    for other in results[1:]:
        assert np.allclose(results[0], other)
