"""Tests for repro.util: errors, rng, validation, distinct counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util import (
    ConfigError,
    FormatError,
    KernelError,
    ReproError,
    ShapeError,
    check_index,
    check_mode,
    check_positive,
    check_shape_match,
    count_distinct,
    derive_seed,
    make_rng,
    sorted_distinct,
    uniform,
)
from repro.util.validation import check_sorted_unique


class TestErrors:
    def test_hierarchy(self):
        for exc in (ShapeError, FormatError, ConfigError, KernelError):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, ValueError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise ShapeError("boom")


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = make_rng().random(8)
        b = make_rng().random(8)
        assert np.array_equal(a, b)

    def test_explicit_seed(self):
        assert np.array_equal(make_rng(7).random(4), make_rng(7).random(4))
        assert not np.array_equal(make_rng(7).random(4), make_rng(8).random(4))

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_sensitive_to_labels(self):
        seeds = {
            derive_seed(1, "a"),
            derive_seed(1, "b"),
            derive_seed(2, "a"),
            derive_seed(1, "a", "b"),
        }
        assert len(seeds) == 4

    def test_uniform_is_deterministic_and_in_range(self):
        assert uniform(1, "a", 2) == uniform(1, "a", 2)
        draws = [uniform(s, "x", i) for s in range(4) for i in range(500)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_uniform_sensitive_to_every_label(self):
        path = (7, "fault", "mttkrp", 3, 0, "lane", 2)
        other = (8, "faults", "ttmc", 4, 1, "abort", 3)
        base = uniform(*path)
        for k in range(len(path)):
            moved = path[:k] + (other[k],) + path[k + 1:]
            assert uniform(*moved) != base, k
        assert uniform(*path, 0) != base

    def test_uniform_is_flat(self):
        u = np.array([uniform(29, "flat", i) for i in range(20_000)])
        assert abs(u.mean() - 0.5) < 0.01
        counts = np.bincount((u * 10).astype(int), minlength=10)
        # Chi-square over 10 equal bins, 9 degrees of freedom: 27.9 is
        # the 0.1% critical value.
        assert ((counts - 2000.0) ** 2 / 2000.0).sum() < 27.9

    def test_uniform_values_are_pinned(self):
        # The top 53 bits of blake2b(digest_size=8) over derive_seed's
        # label path: an edit to the construction moves these.
        assert uniform(0, "a") == 0.8979224548477975
        assert uniform(29, "speed", 1234, 1, "primary") == 0.05376431051900521
        assert uniform(7, "fault", "mttkrp", 0, 0, "abort") == (
            0.021878053391863772
        )


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ConfigError):
            check_positive("x", 0)
        with pytest.raises(ConfigError):
            check_positive("x", -2)

    def test_check_index(self):
        check_index("i", 0, 4)
        check_index("i", 3, 4)
        with pytest.raises(ShapeError):
            check_index("i", 4, 4)
        with pytest.raises(ShapeError):
            check_index("i", -1, 4)

    def test_check_mode(self):
        check_mode(2, 3)
        with pytest.raises(ShapeError):
            check_mode(3, 3)

    def test_check_shape_match(self):
        check_shape_match("a", 5, "b", 5)
        with pytest.raises(ShapeError):
            check_shape_match("a", 5, "b", 6)

    def test_check_sorted_unique(self):
        check_sorted_unique("s", [1, 2, 5])
        with pytest.raises(ShapeError):
            check_sorted_unique("s", [1, 1, 2])
        with pytest.raises(ShapeError):
            check_sorted_unique("s", [3, 2])

    def test_check_sorted_unique_single_pass_iterables(self):
        # One-shot generators are accepted and walked exactly once.
        check_sorted_unique("s", iter([]))
        check_sorted_unique("s", iter([7]))
        check_sorted_unique("s", (i * 2 for i in range(5)))
        with pytest.raises(ShapeError, match=r"values\[2\]=3"):
            check_sorted_unique("s", (x for x in [1, 3, 3]))


def _check_distinct(a):
    """Both helpers agree with ``np.unique`` on ``a``, dtypes included."""
    assert count_distinct(a) == np.unique(a).shape[0]
    s = np.sort(a)
    values, first = sorted_distinct(s)
    want_values, want_first = np.unique(s, return_index=True)
    assert values.dtype == want_values.dtype
    assert first.dtype == want_first.dtype
    assert np.array_equal(values, want_values)
    assert np.array_equal(first, want_first)


class TestDistinct:
    """The sort-based helpers against ``np.unique``, so that a numpy
    upgrade cannot make them drift apart silently."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("values", [
        [], [7], [3, 3, 3, 3], [-5, 2, -5, 0, 2, -1, -5],
    ])
    def test_edge_cases(self, dtype, values):
        _check_distinct(np.array(values, dtype=dtype))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_int64_keys(self, seed):
        rng = make_rng(seed)
        a = rng.integers(-(2**62), 2**62, size=3000)
        _check_distinct(np.concatenate([a, a[::7], -a[:50]]))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        dtype=st.sampled_from([np.int64, np.int32]),
        shape=st.integers(0, 300),
        elements=st.integers(-40, 40),
    ))
    def test_matches_np_unique(self, a):
        _check_distinct(a)
