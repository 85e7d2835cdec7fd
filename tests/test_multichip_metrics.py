"""Tests for the multi-chip scaling model."""

import numpy as np
import pytest

from repro.kernels import mttkrp_sparse
from repro.sim import MultiChipTensaurus, Tensaurus, partition_slices
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError, KernelError

from tests.conftest import random_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_tensor(shape=(120, 40, 30), density=0.05, seed=110)


class TestPartition:
    def test_covers_all_nonempty_slices(self, tensor):
        parts = partition_slices(tensor, 0, 4)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, tensor.nonempty_slices(0))

    def test_disjoint(self, tensor):
        parts = partition_slices(tensor, 0, 4)
        seen = set()
        for p in parts:
            assert not seen.intersection(p.tolist())
            seen.update(p.tolist())

    def test_lpt_balance(self, tensor):
        counts = tensor.slice_nnz_counts(0)
        parts = partition_slices(tensor, 0, 4)
        loads = [int(counts[p].sum()) for p in parts]
        # LPT bound: max load <= mean + heaviest slice.
        assert max(loads) <= np.mean(loads) + counts.max()

    def test_invalid_chip_count(self, tensor):
        with pytest.raises(ConfigError):
            partition_slices(tensor, 0, 0)


class TestMultiChip:
    def test_combined_output_matches_single_chip(self, rng, tensor):
        b = rng.random((tensor.shape[1], 8))
        c = rng.random((tensor.shape[2], 8))
        farm = MultiChipTensaurus(3)
        result = farm.run_mttkrp(tensor, b, c, compute_output=True)
        combined = result.combined_output((tensor.shape[0], 8))
        assert np.allclose(combined, mttkrp_sparse(tensor, [b, c], 0))

    def test_makespan_shrinks_with_chips(self, rng, tensor):
        b = rng.random((tensor.shape[1], 32))
        c = rng.random((tensor.shape[2], 32))
        single = MultiChipTensaurus(1).run_mttkrp(tensor, b, c)
        quad = MultiChipTensaurus(4).run_mttkrp(tensor, b, c)
        assert quad.makespan_s < single.makespan_s
        assert 0 < quad.scaling_efficiency <= 1.0

    def test_single_chip_equals_plain_accelerator(self, rng, tensor):
        b = rng.random((tensor.shape[1], 16))
        c = rng.random((tensor.shape[2], 16))
        farm = MultiChipTensaurus(1).run_mttkrp(tensor, b, c)
        direct = Tensaurus().run_mttkrp(tensor, b, c, compute_output=False)
        assert farm.makespan_s == pytest.approx(direct.time_s)

    def test_skewed_tensor_limits_efficiency(self, rng):
        # One giant slice: adding chips cannot beat that slice's runtime.
        entries = [((0, j, k), 1.0) for j in range(30) for k in range(30)]
        entries += [((i, 0, 0), 1.0) for i in range(1, 8)]
        t = SparseTensor.from_entries((8, 30, 30), entries)
        b = rng.random((30, 8))
        c = rng.random((30, 8))
        result = MultiChipTensaurus(4).run_mttkrp(t, b, c)
        assert result.scaling_efficiency < 0.6

    def test_requires_output_for_combine(self, rng, tensor):
        b = rng.random((tensor.shape[1], 8))
        c = rng.random((tensor.shape[2], 8))
        result = MultiChipTensaurus(2).run_mttkrp(tensor, b, c)
        with pytest.raises(KernelError):
            result.combined_output((tensor.shape[0], 8))

    def test_validation(self):
        with pytest.raises(ConfigError):
            MultiChipTensaurus(0)
        with pytest.raises(KernelError):
            MultiChipTensaurus(2).run_mttkrp(
                SparseTensor.from_entries((2, 2), [((0, 0), 1.0)]),
                np.ones((2, 2)), np.ones((2, 2)),
            )

