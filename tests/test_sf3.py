"""Tests for the SF3 compute-pattern abstraction (the paper's Section 3 claim:
one pattern expresses all eight kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import matrix_workload, tensor_workload
from repro.formats import CSRMatrix
from repro.kernels import (
    SF3Spec,
    execute_sf3,
    mttkrp_sparse,
    sf3_spec_mttkrp,
    sf3_spec_spmm,
    sf3_spec_spmv,
    sf3_spec_ttmc,
    spmm,
    spmv,
    ttmc_sparse,
)
from repro.tensor import SparseTensor
from repro.util.errors import KernelError

from tests.conftest import random_tensor


class TestSpecValidation:
    @staticmethod
    def spec(rng, fiber1, op, group_ptr=(0,)):
        """A spec over an empty iteration space."""
        return SF3Spec(
            kernel="x", group_ids=[], group_ptr=list(group_ptr), d1_idx=[],
            d1_ptr=[0], d0_idx=[], d0_val=[], fiber0=rng.random((2, 2)),
            fiber1=fiber1, op=op, out_shape=(2, 2),
        )

    def test_unknown_op_rejected(self, rng):
        with pytest.raises(KernelError):
            self.spec(rng, rng.random((2, 2)), "cross")

    def test_op_fiber1_consistency(self, rng):
        with pytest.raises(KernelError):
            self.spec(rng, None, "hadamard")
        with pytest.raises(KernelError):
            self.spec(rng, rng.random((2, 2)), None)

    def test_segment_pointers_validated(self, rng):
        assert self.spec(rng, None, None).num_groups == 0
        for bad in ((), (1,), (0, 0)):
            with pytest.raises(KernelError):
                self.spec(rng, None, None, group_ptr=bad)


class TestTable1Mappings:
    """Each Table 1 row evaluated through the generic executor must match
    the direct kernel implementation."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mttkrp(self, rng, mode):
        t = random_tensor(seed=11)
        rest = [m for m in range(3) if m != mode]
        b = rng.standard_normal((t.shape[rest[0]], 4))
        c = rng.standard_normal((t.shape[rest[1]], 4))
        spec = sf3_spec_mttkrp(t, b, c, mode)
        assert spec.op == "hadamard"
        assert np.allclose(execute_sf3(spec), mttkrp_sparse(t, [b, c], mode))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_ttmc(self, rng, mode):
        t = random_tensor(seed=12)
        rest = [m for m in range(3) if m != mode]
        b = rng.standard_normal((t.shape[rest[0]], 3))
        c = rng.standard_normal((t.shape[rest[1]], 5))
        spec = sf3_spec_ttmc(t, b, c, mode)
        assert spec.op == "kron"
        assert np.allclose(execute_sf3(spec), ttmc_sparse(t, [b, c], mode))

    def test_spmm(self, rng):
        dense = (rng.random((9, 7)) < 0.4) * rng.standard_normal((9, 7))
        csr = CSRMatrix.from_dense(dense)
        b = rng.standard_normal((7, 5))
        spec = sf3_spec_spmm(csr, b)
        assert spec.op is None and spec.fiber1 is None
        assert np.allclose(execute_sf3(spec), spmm(csr, b))

    def test_spmv(self, rng):
        dense = (rng.random((9, 7)) < 0.4) * rng.standard_normal((9, 7))
        csr = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(7)
        spec = sf3_spec_spmv(csr, x)
        assert np.allclose(execute_sf3(spec), spmv(csr, x))

    def test_dense_through_same_pattern(self, rng):
        # GEMM == SpMM of a fully dense matrix: the SF3 domains simply
        # become continuous ranges (Table 1's dense rows).
        dense = rng.random((6, 5)) + 0.5
        csr = CSRMatrix.from_dense(dense)
        b = rng.standard_normal((5, 3))
        spec = sf3_spec_spmm(csr, b)
        assert np.allclose(execute_sf3(spec), dense @ b)


class TestDomains:
    def test_d1_is_nonempty_fibers_only(self, paper_tensor, rng):
        b = rng.random((2, 2))
        c = rng.random((2, 2))
        spec = sf3_spec_mttkrp(paper_tensor, b, c, 0)
        assert spec.group_ids.tolist() == [0, 1, 2, 3]
        # Slice 1 has a single fiber at j=1 (a111).
        assert spec.d1_idx[spec.group_ptr[1]:spec.group_ptr[2]].tolist() == [1]
        # Slice 2's fiber j=0 holds two D0 points (k=0 and k=1).
        p = spec.group_ptr[2]
        assert spec.group_ptr[3] - p == 1 and spec.d1_idx[p] == 0
        assert spec.d0_idx[spec.d1_ptr[p]:spec.d1_ptr[p + 1]].tolist() == [0, 1]

    def test_flop_count_positive(self, small_tensor, rng):
        b = rng.random((small_tensor.shape[1], 4))
        c = rng.random((small_tensor.shape[2], 4))
        spec = sf3_spec_mttkrp(small_tensor, b, c, 0)
        assert spec.flop_count > 0
        # The baselines count the same operations under every report name.
        csr = CSRMatrix.from_dense(rng.random((9, 7)) * (rng.random((9, 7)) < 0.4))
        nnz, fibers = small_tensor.nnz, spec.num_d1
        cases = [
            (("spmttkrp", "dmttkrp"), spec, 2 * nnz * 4 + 2 * fibers * 4),
            (
                ("spttmc", "dttmc"),
                sf3_spec_ttmc(small_tensor, b, c[:, :3], 0),
                2 * nnz * 3 + 2 * fibers * 4 * 3,
            ),
            (("spmm", "gemm"), sf3_spec_spmm(csr, rng.random((7, 4))), 2 * csr.nnz * 4),
            (("spmv", "gemv"), sf3_spec_spmv(csr, rng.random(7)), 2 * csr.nnz),
        ]
        for names, sf3, ops in cases:
            for name in names:
                if sf3.fiber1 is not None:
                    stats = tensor_workload(name, small_tensor, 4, 3)
                else:
                    stats = matrix_workload(name, csr, 4)
                assert sf3.flop_count == stats.ops == ops, name

    def test_requires_3d(self, rng):
        flat = SparseTensor.from_entries((2, 2), [((0, 0), 1.0)])
        with pytest.raises(KernelError):
            sf3_spec_mttkrp(flat, rng.random((2, 2)), rng.random((2, 2)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300), mode=st.integers(0, 2))
def test_property_sf3_equals_direct(seed, mode):
    rng = np.random.default_rng(seed)
    t = random_tensor(shape=(6, 5, 4), density=0.3, seed=seed)
    rest = [m for m in range(3) if m != mode]
    b = rng.standard_normal((t.shape[rest[0]], 3))
    c = rng.standard_normal((t.shape[rest[1]], 3))
    assert np.allclose(
        execute_sf3(sf3_spec_mttkrp(t, b, c, mode)),
        mttkrp_sparse(t, [b, c], mode),
    )
    assert np.allclose(
        execute_sf3(sf3_spec_ttmc(t, b, c, mode)),
        ttmc_sparse(t, [b, c], mode),
    )
