"""Tests for COO/CSR matrix formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, CSRMatrix
from repro.util.errors import FormatError, ShapeError


def random_dense(rng, shape=(9, 7), density=0.4):
    return (rng.random(shape) < density) * rng.standard_normal(shape)


class TestCOO:
    def test_roundtrip(self, rng):
        dense = random_dense(rng)
        coo = COOMatrix.from_dense(dense)
        assert np.allclose(coo.to_dense(), dense)
        assert coo.nnz == np.count_nonzero(dense)

    def test_row_major_order(self, rng):
        coo = COOMatrix.from_dense(random_dense(rng))
        keys = coo.rows * coo.shape[1] + coo.cols
        assert np.all(np.diff(keys) > 0)

    def test_row_counts(self):
        coo = COOMatrix((3, 3), [0, 0, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        assert list(coo.row_nnz_counts()) == [2, 0, 1]

    def test_bounds_checked(self):
        with pytest.raises(ShapeError):
            COOMatrix((2, 2), [2], [0], [1.0])
        with pytest.raises(ShapeError):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_misaligned_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix((2, 2), [0, 1], [0], [1.0])

    def test_from_dense_requires_2d(self, rng):
        with pytest.raises(ShapeError):
            COOMatrix.from_dense(rng.random((2, 2, 2)))

    def test_density(self):
        coo = COOMatrix((4, 5), [0], [0], [1.0])
        assert coo.density == pytest.approx(1 / 20)

    def test_duplicates_summed(self):
        coo = COOMatrix((3, 3), [1, 1, 0], [2, 2, 0], [2.0, 3.0, 1.0])
        assert coo.nnz == 2
        assert coo.to_dense()[1, 2] == pytest.approx(5.0)

    def test_cancelling_duplicates_and_zeros_dropped(self):
        coo = COOMatrix((2, 2), [0, 0, 1], [1, 1, 1], [2.0, -2.0, 0.0])
        assert coo.nnz == 0


class TestCSR:
    def test_roundtrip(self, rng):
        dense = random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)

    def test_row_access(self, rng):
        dense = random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        for i in range(dense.shape[0]):
            cols, vals = csr.row(i)
            expected = np.flatnonzero(dense[i])
            assert np.array_equal(cols, expected)
            assert np.allclose(vals, dense[i, expected])

    def test_row_out_of_range(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng))
        with pytest.raises(ShapeError):
            csr.row(99)

    def test_iter_rows_covers_all(self, rng):
        dense = random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        seen = sum(len(cols) for _, cols, _ in csr.iter_rows())
        assert seen == csr.nnz

    def test_indptr_validation(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])  # wrong indptr length
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])  # decreasing
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 1, 3], [0, 1], [1.0, 2.0])  # bad endpoint

    def test_column_bounds(self):
        with pytest.raises(ShapeError):
            CSRMatrix((2, 2), [0, 1, 1], [7], [1.0])

    def test_storage_bytes(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng))
        expected = (csr.shape[0] + 1) * 4 + csr.nnz * 4 + csr.nnz * 4
        assert csr.storage_bytes() == expected

    def test_coo_roundtrip(self, rng):
        dense = random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_coo().to_dense(), dense)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 500),
)
def test_property_all_formats_roundtrip(rows, cols, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < 0.5) * rng.standard_normal((rows, cols))
    for cls in (COOMatrix, CSRMatrix):
        assert np.allclose(cls.from_dense(dense).to_dense(), dense), cls
