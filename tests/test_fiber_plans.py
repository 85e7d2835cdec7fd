"""Fiber plans: the per-(operand, mode) layout the accelerator caches.

The plan tests guard the ways a memo of derived tensor data goes wrong:
rebuilding per launch (no reuse), serving a stale plan after the operand
changed in place, sharing a plan between operands with equal nonzeros but
different shapes, and aliasing operands when caching is off. The exactness
tests pin the TSR fiber sums to numpy's own ``add.reduceat`` bit for bit,
over fiber lengths that reach every branch of its pairwise summation. The
schedule tests check that a plan's TSR schedule is read-only, built once
per plan, and never built by a timing-only launch.
"""

import numpy as np
import pytest

from repro.factorization.accelerated import accelerated_cp_als
from repro.kernels import fibers as fibers_mod
from repro.kernels import mttkrp as mttkrp_mod
from repro.kernels import ttmc as ttmc_mod
from repro.kernels import mttkrp_sparse_factored, ttmc_sparse_factored
from repro.kernels.fibers import fiber_plan, fiber_sums, scatter_cells, scatter_rows
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


def reduceat_sums(plan, mat_c):
    """The TSR oracle: numpy's own per-fiber ``add.reduceat``."""
    scaled = mat_c[plan.coords[:, 2], :]
    scaled *= plan.values[:, None]
    return np.add.reduceat(scaled, plan.starts, axis=0)


def signed_values(rng, n):
    """Values over 12 decades with some +0.0 and -0.0, so that any
    reassociation of a fiber sum, or a sum started from +0.0, changes bits."""
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
    vals[rng.random(n) < 0.05] = 0.0
    vals[rng.random(n) < 0.05] = -0.0
    return vals


def fibered_tensor(lengths, seed):
    """A canonical tensor whose mode-0 plan has one fiber per entry of
    ``lengths``, in order; a tenth of the fibers hold only -0.0 values."""
    rng = make_rng(seed)
    cols, k_dim = 8, max(lengths) + 5
    coords, values = [], []
    for f, length in enumerate(lengths):
        ks = np.sort(rng.choice(k_dim, size=length, replace=False))
        coords.append(
            np.column_stack([np.full(length, f // cols),
                             np.full(length, f % cols), ks])
        )
        vals = signed_values(rng, length)
        if rng.random() < 0.1:
            vals[:] = -0.0
        values.append(vals)
    shape = ((len(lengths) - 1) // cols + 1, cols, k_dim)
    return SparseTensor(
        shape, np.concatenate(coords), np.concatenate(values), canonical=True
    )


def signed_factor(rng, rows, rank):
    """A factor with +0.0 and -0.0 entries and one all-positive column, so
    a fiber of -0.0 values sums to -0.0 there."""
    mat = rng.standard_normal((rows, rank))
    mat[:, 0] = np.abs(mat[:, 0]) + 0.5
    mat[rng.random(mat.shape) < 0.1] = 0.0
    mat[rng.random(mat.shape) < 0.05] = -0.0
    return mat


#: Fiber lengths in records, reaching each branch of numpy's pairwise sum
#: over the records after the first: none; 1 to 7 (summed in order); 8 to
#: 128 (eight interleaved accumulators); 129 to 259 (split once, twice from
#: 257 on); 299 to 599 (split twice).
LENGTH_RANGES = {
    "single": (1, 1),
    "short": (2, 8),
    "blocked": (9, 129),
    "split": (130, 260),
    "split-twice": (300, 600),
}


class TestFiberSumsExact:
    """``fiber_sums`` must equal ``np.add.reduceat`` bit for bit."""

    def check(self, t, mode, rank, seed):
        plan = fiber_plan(t, mode)
        mat_c = signed_factor(make_rng(seed), plan.shape[2], rank)
        got = fiber_sums(plan, mat_c)
        want = reduceat_sums(plan, mat_c)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("name", sorted(LENGTH_RANGES))
    def test_length_range(self, name):
        lo, hi = LENGTH_RANGES[name]
        rng = make_rng(50)
        lengths = rng.integers(lo, hi + 1, size=24 if hi > 129 else 60)
        self.check(fibered_tensor(lengths, seed=51), 0, 6, 52)

    def test_mixed_lengths(self):
        rng = make_rng(53)
        lengths = np.concatenate([
            rng.integers(lo, hi + 1, size=15)
            for lo, hi in LENGTH_RANGES.values()
        ])
        rng.shuffle(lengths)
        self.check(fibered_tensor(lengths, seed=54), 0, 5, 55)

    @pytest.mark.parametrize(
        "length", [1, 2, 8, 9, 16, 17, 129, 130, 257, 258, 553]
    )
    def test_single_fiber(self, length):
        self.check(fibered_tensor([length], seed=length), 0, 4, 56)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tensors_every_mode(self, seed):
        t = random_tensor(shape=(14, 11, 40), density=0.3, seed=60 + seed)
        t = SparseTensor(
            t.shape, t.coords, signed_values(make_rng(seed), t.nnz),
            canonical=True,
        )
        for mode in range(3):
            self.check(t, mode, 7, seed)

    def test_empty_tensor(self):
        plan = fiber_plan(SparseTensor.empty((4, 3, 2)), 0)
        assert fiber_sums(plan, np.ones((2, 3))).shape == (0, 3)


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

    @pytest.mark.parametrize("width", [1, 6, 64])
    def test_scatter_matches_add_at_bitwise(self, width):
        rng = make_rng(8)
        rows = np.sort(rng.integers(0, 30, size=500))
        rows[rows == 17] = 16  # output row 17 stays empty, as do 30..39
        contrib = rng.standard_normal((500, width)) * 10.0 ** rng.integers(
            -12, 12, size=(500, 1)
        )
        contrib[::7] = -0.0
        contrib[rows == 5] = -0.0  # output row 5 sums only -0.0 terms
        want = np.zeros((40, width))
        np.add.at(want, rows, contrib)
        got = scatter_rows(scatter_cells(rows, width), contrib, 40)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    def test_scatter_of_no_rows_is_float_zeros(self):
        got = scatter_rows(
            scatter_cells(np.zeros(0, dtype=np.int64), 3), np.zeros((0, 3)), 4
        )
        assert got.dtype == np.float64
        assert np.array_equal(bits(got), bits(np.zeros((4, 3))))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_factor_layouts_give_identical_bytes(self, mode):
        # The row gathers take another numpy path for each factor layout:
        # C order, Fortran order and a strided column slice.
        t = random_tensor(shape=(14, 11, 9), density=0.3, seed=80)
        t = SparseTensor(
            t.shape, t.coords, signed_values(make_rng(81), t.nnz),
            canonical=True,
        )

        def layouts(mat):
            wide = np.zeros((mat.shape[0], 2 * mat.shape[1]))
            wide[:, 1::2] = mat
            yield np.ascontiguousarray(mat)
            yield np.asfortranarray(mat)
            yield wide[:, 1::2]

        for kernel, ranks in ((mttkrp_sparse_factored, (6, 6)),
                              (ttmc_sparse_factored, (5, 7))):
            b, c = factors_for(t, mode, ranks, 82)
            b[0, 0], c[-1, -1] = -0.0, 0.0
            outs = [
                bits(kernel(t, [b_l, c_l], mode))
                for b_l, c_l in zip(layouts(b), layouts(c))
            ]
            for out in outs[1:]:
                assert np.array_equal(out, outs[0])


def plan_arrays(plan):
    """Every ndarray a plan holds, its TSR schedule's included."""
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    for holder in (plan, plan.schedule):
        for value in vars(holder).values():
            walk(value)
    return found


def counting_schedules(monkeypatch):
    """Record the mode of every TSR schedule built from here on."""
    built = []
    real = fibers_mod.tsr_schedule

    def counting(plan):
        built.append(plan.mode)
        return real(plan)

    monkeypatch.setattr(fibers_mod, "tsr_schedule", counting)
    return built


class TestTSRSchedule:
    def test_every_array_read_only(self):
        # 552 terms after the head split three levels deep, so the
        # schedule holds merge levels as well.
        plan = fiber_plan(fibered_tensor([1, 5, 40, 300, 553], seed=70), 0)
        assert len(plan.schedule.merges) == 3
        arrays = plan_arrays(plan)
        assert len(arrays) == 5 + 4 + 2 * 3
        for arr in arrays:
            assert not arr.flags.writeable
        # The cached plan is shared across launches: nothing may write it.
        with pytest.raises(ValueError):
            plan.schedule.k[0] = 0

    def test_built_once_per_plan(self, monkeypatch):
        built = counting_schedules(monkeypatch)
        t = random_tensor(shape=(20, 10, 30), density=0.2, seed=71)
        plan = fiber_plan(t, 0)
        assert built == []
        c = make_rng(72).standard_normal((30, 4))
        for _ in range(3):
            fiber_sums(plan, c)
        assert built == [0]


class TestAcceleratorPlanCache:
    def test_cp_als_builds_each_schedule_once(self, monkeypatch):
        built = counting_schedules(monkeypatch)
        t = random_tensor(shape=(25, 20, 15), density=0.1, seed=12)
        run = accelerated_cp_als(t, rank=6, num_iters=3, seed=1)
        assert len(run.reports) == 9
        assert sorted(built) == [0, 1, 2]

    @pytest.mark.parametrize("run", ["run_mttkrp", "run_ttmc"])
    def test_timing_only_launch_builds_no_schedule(self, monkeypatch, run):
        built = counting_schedules(monkeypatch)
        t = random_tensor(shape=(25, 20, 15), density=0.1, seed=13)
        acc = Tensaurus()
        for mode in range(3):
            b, c = factors_for(t, mode, (4, 4), mode)
            getattr(acc, run)(t, b, c, mode=mode, compute_output=False)
        assert built == []
        # The first functional launch builds the cached plan's schedule.
        b, c = factors_for(t, 1, (4, 4), 1)
        for _ in range(2):
            getattr(acc, run)(t, b, c, mode=1)
        assert built == [1]

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
        # The operand's bytes are checked per launch, so a forced in-place
        # edit of the values misses the cached plan instead of serving its
        # stale permuted copy.
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
