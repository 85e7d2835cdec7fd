"""Tests for the SparseTensor substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import SparseTensor, fold_dense, unfold_dense
from repro.util.errors import ShapeError

from tests.conftest import random_tensor


def dense_of(shape, entries):
    out = np.zeros(shape)
    for idx, val in entries:
        out[idx] += val
    return out


class TestConstruction:
    def test_from_entries_roundtrip(self):
        entries = [((0, 1, 0), 2.0), ((2, 0, 1), -1.5)]
        t = SparseTensor.from_entries((3, 2, 2), entries)
        assert np.allclose(t.to_dense(), dense_of((3, 2, 2), entries))

    def test_duplicates_are_summed(self):
        t = SparseTensor.from_entries(
            (2, 2), [((0, 1), 1.0), ((0, 1), 2.5), ((1, 0), 1.0)]
        )
        assert t.nnz == 2
        assert t[(0, 1)] == pytest.approx(3.5)

    def test_explicit_zeros_dropped(self):
        t = SparseTensor.from_entries((2, 2), [((0, 0), 0.0), ((1, 1), 2.0)])
        assert t.nnz == 1

    def test_cancelling_duplicates_dropped(self):
        t = SparseTensor.from_entries((2, 2), [((0, 0), 1.0), ((0, 0), -1.0)])
        assert t.nnz == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor.from_entries((2, 2), [((2, 0), 1.0)])
        with pytest.raises(ShapeError):
            SparseTensor.from_entries((2, 2), [((-1, 0), 1.0)])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor((0, 2), np.empty((0, 2)), np.empty(0))
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), np.zeros((2, 2)), np.ones(3))

    @pytest.mark.parametrize(
        "shape, coords",
        [
            # 2**65 cells: both keys wrap to 0, so the nonzeros would merge.
            ((2**23, 2**21, 2**21), [[0, 0, 0], [2**22, 0, 0]]),
            # 2**64 cells: the first key wraps negative and sorts first.
            ((2**21, 2**21, 2**22), [[2**20, 0, 0], [0, 0, 1]]),
        ],
    )
    def test_shape_beyond_int64_keys_rejected(self, shape, coords):
        with pytest.raises(ShapeError):
            SparseTensor(shape, coords, [1.0, 2.0])

    def test_empty_tensor_of_any_shape_permutes(self):
        # No nonzeros, no keys to wrap.
        t = SparseTensor.empty((2**40, 2**40, 2**40))
        assert t.permute_modes([2, 0, 1]).nnz == 0

    def test_large_shape_within_int64_keys(self):
        # 2**62 cells: every key fits, so order and values are exact.
        t = SparseTensor(
            (2**20, 2**21, 2**21),
            [[2**20 - 1, 0, 0], [0, 2**21 - 1, 2**21 - 1], [0, 0, 1]],
            [1.0, 2.0, 3.0],
        )
        assert t.coords.tolist() == [
            [0, 0, 1], [0, 2**21 - 1, 2**21 - 1], [2**20 - 1, 0, 0],
        ]
        assert t.values.tolist() == [3.0, 2.0, 1.0]
        p = t.permute_modes([2, 1, 0])
        assert p.coords.tolist() == [
            [0, 0, 2**20 - 1], [1, 0, 0], [2**21 - 1, 2**21 - 1, 0],
        ]

    def test_empty(self):
        t = SparseTensor.empty((4, 5, 6))
        assert t.nnz == 0
        assert t.density == 0.0
        assert np.allclose(t.to_dense(), 0.0)

    def test_from_dense_roundtrip(self, rng):
        dense = (rng.random((5, 4, 3)) < 0.4) * rng.standard_normal((5, 4, 3))
        t = SparseTensor.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)
        assert t.nnz == np.count_nonzero(dense)

    def test_canonical_order_is_lexicographic(self, small_tensor):
        c = small_tensor.coords
        keys = (c[:, 0] * 1000 + c[:, 1]) * 1000 + c[:, 2]
        assert np.all(np.diff(keys) > 0)

    def test_immutability(self, small_tensor):
        with pytest.raises(ValueError):
            small_tensor.coords[0, 0] = 99
        with pytest.raises(ValueError):
            small_tensor.values[0] = 99


class TestQueries:
    def test_getitem(self, paper_tensor):
        assert paper_tensor[(0, 0, 0)] == 1.0
        assert paper_tensor[(3, 1, 0)] == 6.0
        assert paper_tensor[(3, 0, 0)] == 0.0

    def test_getitem_errors(self, paper_tensor):
        with pytest.raises(ShapeError):
            paper_tensor[(0, 0)]
        with pytest.raises(ShapeError):
            paper_tensor[(4, 0, 0)]

    def test_slice_nnz_counts(self, paper_tensor):
        assert list(paper_tensor.slice_nnz_counts(0)) == [2, 1, 2, 1]
        assert list(paper_tensor.slice_nnz_counts(1)) == [3, 3]

    def test_nonempty_slices(self):
        t = SparseTensor.from_entries((5, 2, 2), [((0, 0, 0), 1.0), ((4, 1, 1), 1.0)])
        assert list(t.nonempty_slices(0)) == [0, 4]

    def test_iter_entries(self, paper_tensor):
        entries = list(paper_tensor.iter_entries())
        assert entries[0] == ((0, 0, 0), 1.0)
        assert len(entries) == 6

    def test_norm(self, small_tensor):
        assert small_tensor.norm() == pytest.approx(
            np.linalg.norm(small_tensor.to_dense())
        )

    def test_density(self):
        t = SparseTensor.from_entries((2, 2), [((0, 0), 1.0)])
        assert t.density == pytest.approx(0.25)


class TestTransforms:
    def test_permute_roundtrip(self, small_tensor):
        p = small_tensor.permute_modes([2, 0, 1])
        assert p.shape == (
            small_tensor.shape[2],
            small_tensor.shape[0],
            small_tensor.shape[1],
        )
        assert np.allclose(
            p.to_dense(), np.transpose(small_tensor.to_dense(), [2, 0, 1])
        )
        back = p.permute_modes([1, 2, 0])
        assert back == small_tensor

    def test_permute_invalid(self, small_tensor):
        with pytest.raises(ShapeError):
            small_tensor.permute_modes([0, 0, 1])

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unfold_matches_dense(self, small_tensor, mode):
        rows, cols, shape2d = small_tensor.unfold(mode)
        mat = np.zeros(shape2d)
        mat[rows, cols] = small_tensor.values
        assert np.allclose(mat, unfold_dense(small_tensor.to_dense(), mode))

    def test_scale(self, small_tensor):
        doubled = small_tensor.scale(2.0)
        assert np.allclose(doubled.to_dense(), 2.0 * small_tensor.to_dense())
        assert small_tensor.scale(0.0).nnz == 0

    def test_equality_and_hash(self, small_tensor):
        clone = SparseTensor(
            small_tensor.shape, small_tensor.coords, small_tensor.values
        )
        assert clone == small_tensor
        assert hash(clone) == hash(small_tensor)
        assert small_tensor != small_tensor.scale(2.0)

    def test_repr(self, small_tensor):
        text = repr(small_tensor)
        assert "SparseTensor" in text and "nnz" in text


class TestDenseHelpers:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_unfold_fold_roundtrip_4d(self, rng, mode):
        dense = rng.standard_normal((3, 4, 2, 5))
        mat = unfold_dense(dense, mode)
        assert mat.shape[0] == dense.shape[mode]
        assert np.allclose(fold_dense(mat, mode, dense.shape), dense)

    def test_unfold_column_order(self, rng):
        # Earliest remaining mode varies fastest along columns.
        dense = rng.standard_normal((2, 3, 4))
        mat = unfold_dense(dense, 0)
        j, k = 2, 1
        assert mat[1, j + 3 * k] == dense[1, j, k]


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
    ),
    seed=st.integers(0, 1000),
)
def test_property_dense_roundtrip(shape, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < 0.5) * rng.standard_normal(shape)
    t = SparseTensor.from_dense(dense)
    assert np.allclose(t.to_dense(), dense)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), mode=st.integers(0, 2))
def test_property_unfold_consistency(seed, mode):
    t = random_tensor(seed=seed)
    rows, cols, shape2d = t.unfold(mode)
    mat = np.zeros(shape2d)
    mat[rows, cols] = t.values
    assert np.allclose(mat, unfold_dense(t.to_dense(), mode))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_permute_matches_lexsort(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 1000), min_size=1, max_size=4)))
    order = data.draw(st.permutations(range(len(shape))))
    cells = data.draw(st.lists(
        st.tuples(*[st.integers(0, s - 1) for s in shape]), max_size=60
    ))
    coords = np.array(cells, dtype=np.int64).reshape(-1, len(shape))
    t = SparseTensor(shape, coords, np.arange(1.0, len(cells) + 1))
    p = t.permute_modes(order)
    # The reference: a lexsort of the permuted coordinates, whose keys run
    # last to first.
    moved = t.coords[:, list(order)]
    ref = np.lexsort(moved.T[::-1])
    assert p.shape == tuple(shape[m] for m in order)
    assert np.array_equal(p.coords, moved[ref])
    assert np.array_equal(p.values, t.values[ref])


class TestNonFiniteRejection:
    def test_nan_values_rejected(self):
        from repro.util.errors import DataError

        with pytest.raises(DataError, match="non-finite"):
            SparseTensor(
                (4, 4, 4),
                np.array([[0, 1, 2]]),
                np.array([np.nan]),
            )

    def test_inf_values_rejected(self):
        from repro.util.errors import DataError

        with pytest.raises(DataError, match="non-finite"):
            SparseTensor(
                (4, 4, 4),
                np.array([[0, 1, 2], [1, 1, 1]]),
                np.array([1.0, -np.inf]),
            )

    def test_from_dense_rejects_nan(self):
        from repro.util.errors import DataError

        dense = np.zeros((3, 3))
        dense[1, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            SparseTensor.from_dense(dense)

    def test_data_error_is_value_and_repro_error(self):
        from repro.util.errors import DataError, ReproError

        assert issubclass(DataError, ValueError)
        assert issubclass(DataError, ReproError)

    def test_finite_values_still_accepted(self):
        t = SparseTensor(
            (4, 4, 4), np.array([[0, 1, 2]]), np.array([2.5])
        )
        assert t.nnz == 1
