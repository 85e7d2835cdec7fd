"""Fiber plans: the per-(operand, mode) layout the accelerator caches.

The plan tests guard the ways a memo of derived tensor data goes wrong:
rebuilding per launch (no reuse), serving a stale plan after the operand
changed in place, sharing a plan between operands with equal nonzeros but
different shapes, and aliasing operands when caching is off.
"""

import numpy as np
import pytest

from repro.factorization.accelerated import accelerated_cp_als
from repro.kernels import fibers as fibers_mod
from repro.kernels import mttkrp as mttkrp_mod
from repro.kernels import ttmc as ttmc_mod
from repro.kernels import mttkrp_sparse_factored, ttmc_sparse_factored
from repro.kernels.fibers import fiber_plan, scatter_rows
from repro.sim import Tensaurus, TensaurusConfig
from repro.sim import accelerator as accelerator_mod
from repro.tensor import SparseTensor
from repro.util.errors import KernelError
from repro.util.rng import make_rng

from tests.conftest import random_tensor
from tests.test_perfmodel_agreement import report_fields


def factors_for(t, mode, ranks, seed):
    rng = make_rng(seed)
    rest = [m for m in range(3) if m != mode]
    return [rng.standard_normal((t.shape[m], r)) for m, r in zip(rest, ranks)]


def bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


class TestFiberPlan:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_layout(self, mode):
        t = random_tensor(shape=(9, 7, 6), density=0.3, seed=2)
        plan = fiber_plan(t, mode)
        rest = [m for m in range(3) if m != mode]
        perm = t.permute_modes([mode] + rest)
        assert plan.shape == perm.shape and plan.nnz == t.nnz
        assert np.array_equal(plan.coords, perm.coords)
        assert np.array_equal(plan.values, perm.values)
        fibers = {tuple(c[:2]) for c in perm.coords}
        assert plan.starts.shape[0] == len(fibers)
        assert list(zip(plan.fiber_i, plan.fiber_j)) == sorted(fibers)
        assert plan.nonempty_slices == np.unique(perm.coords[:, 0]).shape[0]
        for arr in (plan.coords, plan.values, plan.starts, plan.fiber_i,
                    plan.fiber_j):
            assert not arr.flags.writeable

    def test_empty_tensor(self):
        plan = fiber_plan(SparseTensor.empty((4, 3, 2)), 1)
        assert plan.nnz == 0 and plan.starts.shape == (0,)
        assert plan.nonempty_slices == 0

    def test_mismatched_plan_rejected(self):
        t = random_tensor(seed=3)
        facs = factors_for(t, 0, (4, 4), 1)
        with pytest.raises(KernelError):
            mttkrp_sparse_factored(t, facs, 0, plan=fiber_plan(t, 1))
        other = random_tensor(shape=t.shape, density=0.05, seed=4)
        with pytest.raises(KernelError):
            ttmc_sparse_factored(t, facs, 0, plan=fiber_plan(other, 0))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_given_plan_matches_built(self, mode):
        t = random_tensor(shape=(10, 8, 6), density=0.3, seed=5)
        plan = fiber_plan(t, mode)
        facs = factors_for(t, mode, (3, 5), 6)
        assert np.array_equal(
            bits(ttmc_sparse_factored(t, facs, mode, plan=plan)),
            bits(ttmc_sparse_factored(t, facs, mode)),
        )

    def test_scatter_matches_add_at_bitwise(self):
        rng = make_rng(8)
        rows = np.sort(rng.integers(0, 30, size=500))
        contrib = rng.standard_normal((500, 6)) * 10.0 ** rng.integers(
            -12, 12, size=(500, 1)
        )
        contrib[::7] = -0.0
        want = np.zeros((40, 6))
        np.add.at(want, rows, contrib)
        assert np.array_equal(bits(scatter_rows(rows, contrib, 40)), bits(want))


class TestAcceleratorPlanCache:
    def test_cp_als_builds_each_plan_once(self, monkeypatch):
        built = []
        real = fibers_mod.fiber_plan

        def counting(tensor, mode):
            built.append((id(tensor), mode))
            return real(tensor, mode)

        for module in (accelerator_mod, mttkrp_mod, ttmc_mod):
            monkeypatch.setattr(module, "fiber_plan", counting)
        t = random_tensor(shape=(25, 20, 15), density=0.1, seed=12)
        run = accelerated_cp_als(t, rank=6, num_iters=3, seed=1)
        assert len(run.reports) == 9
        assert sorted(built) == [(id(t), 0), (id(t), 1), (id(t), 2)]

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_inplace_mutation_output_matches_fresh(self, mode):
        # The fingerprint is taken per launch, so a forced in-place edit of
        # the values misses the cached plan instead of serving its stale
        # permuted copy.
        t = random_tensor(shape=(30, 20, 15), density=0.1, seed=20)
        b, c = factors_for(t, mode, (8, 8), 21)
        acc = Tensaurus()
        acc.run_mttkrp(t, b, c, mode=mode)
        t.values.flags.writeable = True
        t.values[: t.nnz // 2] *= -3.0
        t.values.flags.writeable = False
        got = acc.run_mttkrp(t, b, c, mode=mode)
        want = Tensaurus().run_mttkrp(t, b, c, mode=mode)
        assert report_fields(got) == report_fields(want)
        assert np.array_equal(bits(got.output), bits(want.output))

    @pytest.mark.parametrize("compute_output", [True, False])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_same_nonzeros_other_shape_matches_fresh(self, mode, compute_output):
        # Equal coordinates and values fingerprint equally, but the declared
        # shape sets the tiling and the output rows, so two such operands on
        # one accelerator must not share a plan.
        small = random_tensor(shape=(10, 10, 10), density=0.2, seed=40)
        big = SparseTensor(
            (40, 40, 40), small.coords, small.values, canonical=True
        )
        for order in ((small, big), (big, small)):
            acc = Tensaurus()
            for t in order:
                b, c = factors_for(t, mode, (4, 6), 41)
                for run in ("run_mttkrp", "run_ttmc"):
                    c_in = c if run == "run_ttmc" else c[:, :4]
                    got, want = (
                        getattr(a, run)(
                            t, b, c_in, mode=mode,
                            compute_output=compute_output,
                        )
                        for a in (acc, Tensaurus())
                    )
                    assert report_fields(got) == report_fields(want)
                    if compute_output:
                        assert np.array_equal(
                            bits(got.output), bits(want.output)
                        )

    def test_cache_disabled_is_byte_equal(self):
        cached = Tensaurus()
        uncached = Tensaurus(TensaurusConfig(encoding_cache_entries=0))
        # Two operands of one shape in turn: with caching off nothing may
        # carry over from one to the next.
        tensors = [
            random_tensor(shape=(30, 20, 15), density=0.1, seed=s)
            for s in (30, 31)
        ]
        for _ in range(2):
            for t in tensors:
                for mode in range(3):
                    b, c = factors_for(t, mode, (4, 6), mode)
                    for run in ("run_mttkrp", "run_ttmc"):
                        c_in = c if run == "run_ttmc" else c[:, :4]
                        a = getattr(cached, run)(t, b, c_in, mode=mode)
                        r = getattr(uncached, run)(t, b, c_in, mode=mode)
                        assert report_fields(a) == report_fields(r)
                        assert np.array_equal(bits(a.output), bits(r.output))
        assert len(uncached.cache) == 0
