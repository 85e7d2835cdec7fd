"""Cross-validation of the fast analytical model against the cycle simulator.

The fast model shares the simulator's cost constants but approximates bank
conflicts, lane imbalance and per-tile overlap; these tests bound the error
so neither model can drift silently.
"""

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.sim import FastModel, Tensaurus, TensaurusConfig
from repro.util.rng import make_rng

from tests.conftest import digest, random_tensor

ACC = Tensaurus()
FAST = FastModel()

#: Accepted cycle-count band (fast model / cycle simulator).
LO, HI = 0.4, 2.0


def band_check(sim_cycles, fast_cycles):
    ratio = fast_cycles / sim_cycles
    assert LO <= ratio <= HI, f"fast/sim ratio {ratio:.2f} out of band"


class TestTensorKernels:
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.2])
    def test_mttkrp_band(self, density):
        rng = make_rng(1)
        t = random_tensor(shape=(80, 50, 40), density=density, seed=10)
        b = rng.random((50, 32))
        c = rng.random((40, 32))
        for mode_choice in ("buffered", "direct"):
            sim = ACC.run_mttkrp(
                t, b, c, msu_mode=mode_choice, compute_output=False
            )
            fast = FAST.mttkrp(t, 32, msu_mode=mode_choice)
            band_check(sim.cycles, fast.cycles)

    def test_ttmc_band(self):
        rng = make_rng(2)
        t = random_tensor(shape=(60, 40, 30), density=0.05, seed=11)
        b = rng.random((40, 16))
        c = rng.random((30, 16))
        sim = ACC.run_ttmc(t, b, c, msu_mode="direct", compute_output=False)
        fast = FAST.ttmc(t, 16, 16, msu_mode="direct")
        band_check(sim.cycles, fast.cycles)
        assert fast.detail["passes"] == sim.detail["passes"]

    def test_byte_totals_close(self):
        rng = make_rng(3)
        t = random_tensor(shape=(80, 50, 40), density=0.05, seed=12)
        sim = ACC.run_mttkrp(
            t, rng.random((50, 32)), rng.random((40, 32)),
            msu_mode="direct", compute_output=False,
        )
        fast = FAST.mttkrp(t, 32, msu_mode="direct")
        assert 0.5 <= fast.total_bytes / sim.total_bytes <= 1.5


class TestMatrixKernels:
    @pytest.mark.parametrize("density", [0.005, 0.05, 0.3])
    def test_spmm_band(self, density):
        rng = make_rng(4)
        dense = (rng.random((300, 200)) < density) * (rng.random((300, 200)) + 0.1)
        coo = COOMatrix.from_dense(dense)
        b = rng.random((200, 32))
        sim = ACC.run_spmm(coo, b, msu_mode="direct", compute_output=False)
        fast = FAST.spmm(coo, 32, msu_mode="direct")
        band_check(sim.cycles, fast.cycles)

    def test_spmv_band(self):
        rng = make_rng(5)
        dense = (rng.random((400, 300)) < 0.03) * (rng.random((400, 300)) + 0.1)
        coo = COOMatrix.from_dense(dense)
        sim = ACC.run_spmv(coo, rng.random(300), msu_mode="direct",
                           compute_output=False)
        fast = FAST.spmv(coo, msu_mode="direct")
        band_check(sim.cycles, fast.cycles)


def report_fields(report):
    """Every timing-facing field of a SimReport, for exact comparison."""
    return (
        report.cycles,
        report.ops,
        report.tensor_bytes,
        report.matrix_bytes,
        report.output_bytes,
        tuple(sorted(report.detail.items())),
    )


#: ``report_digest`` of each TestBatchedEngineAgreement case, computed with
#: the per-tile reference engine (every tile sliced out, CISS-encoded and
#: lane-analyzed on its own, encoding cache off) before it was deleted.
#: The batched engine must reproduce them exactly; never re-baseline one.
PER_TILE_GOLDEN = {
    "mttkrp/auto/0": "707cbb9c5b9e70a32ba4106bd7f4a535eb1c70a27bce5544d35062796be903d3",
    "mttkrp/buffered/0": "707cbb9c5b9e70a32ba4106bd7f4a535eb1c70a27bce5544d35062796be903d3",
    "mttkrp/direct/0": "3b2a9c6099f4831739d6f60898a9064b17411e6e215b41ad9c191942f7945634",
    "mttkrp/auto/1": "82d90afd7271d45fc5e81af982a50274924ae3c8b236c5ae8c119307999ee2d9",
    "mttkrp/buffered/1": "82d90afd7271d45fc5e81af982a50274924ae3c8b236c5ae8c119307999ee2d9",
    "mttkrp/direct/1": "7eff491f11ce3441a01dff2901d0632a53c6ae2c272ec4c3a2d287b535d4a067",
    "mttkrp/auto/2": "db1b32bb4aecdb551dcad1a2b1c3898926221c289b44db1c22f189bd27835860",
    "mttkrp/buffered/2": "db1b32bb4aecdb551dcad1a2b1c3898926221c289b44db1c22f189bd27835860",
    "mttkrp/direct/2": "21f429d830e635a576231b0660269938c890c00e3cc8b6cba3f356a025d9afb5",
    "ttmc/0": "a4849907c7be53f99ea51c1db16f5b0d39cdf991346514c02767e4fe6967b3cd",
    "ttmc/1": "6fd3ccf09e3db54d980b703ac598578dbf16a75b1d7067e9b8e6e128b21e9680",
    "ttmc/2": "021eabc1d4b075655f8fc862545a915ccb214a5a3083da363665cb760bb9d085",
    "matrix/auto": "8f84ba8c1b5acb71433776f29d3bb231eaea4804ce6fefe3e1d5443932aadba5",
    "matrix/buffered": "8f84ba8c1b5acb71433776f29d3bb231eaea4804ce6fefe3e1d5443932aadba5",
    "matrix/direct": "bb005a908e428c787ee7e8049c1d1af7e185a1b008af44e712a9dcccbf7fa717",
    "dataset/poisson3D": "b0758acdf23bf42a922859af41c931a7d5ae531913d4d6d1d6334db2a7892131",
    "dataset/cora": "e3c1ef18ea816d7cf38f4ad2d5ee11a2bcfd55ccad142dcc17715f796a734c7c",
}


def report_digest(*reports) -> str:
    """sha256 over each report's ``report_fields`` and output bytes."""
    parts = []
    for report in reports:
        parts += [report_fields(report), report.output]
    return digest(*parts)


class TestBatchedEngineAgreement:
    """The batched tile engine reproduces the per-tile reference digests."""

    @pytest.fixture(scope="class")
    def acc(self):
        return Tensaurus(TensaurusConfig(spm_kb=4, msu_kb=16))

    @staticmethod
    def check(key, *reports):
        assert report_digest(*reports) == PER_TILE_GOLDEN[key], (
            f"{key}: digest moved"
        )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("msu", ["auto", "buffered", "direct"])
    def test_sparse_mttkrp(self, acc, mode, msu):
        rng = make_rng(20 + mode)
        t = random_tensor(shape=(50, 40, 30), density=0.06, seed=mode)
        rest = [m for m in range(3) if m != mode]
        b = rng.random((t.shape[rest[0]], 24))
        c = rng.random((t.shape[rest[1]], 24))
        self.check(
            f"mttkrp/{msu}/{mode}",
            acc.run_mttkrp(t, b, c, mode=mode, msu_mode=msu),
        )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_sparse_ttmc(self, acc, mode):
        rng = make_rng(30 + mode)
        t = random_tensor(shape=(40, 30, 25), density=0.08, seed=50 + mode)
        rest = [m for m in range(3) if m != mode]
        b = rng.random((t.shape[rest[0]], 8))
        c = rng.random((t.shape[rest[1]], 6))
        self.check(f"ttmc/{mode}", acc.run_ttmc(t, b, c, mode=mode))

    @pytest.mark.parametrize("msu", ["auto", "buffered", "direct"])
    def test_sparse_matrix_kernels(self, acc, msu):
        rng = make_rng(40)
        dense = (rng.random((200, 150)) < 0.04) * (rng.random((200, 150)) + 0.1)
        coo = COOMatrix.from_dense(dense)
        b = rng.random((150, 24))
        v = rng.random(150)
        self.check(
            f"matrix/{msu}",
            acc.run_spmm(coo, b, msu_mode=msu),
            acc.run_spmv(coo, v, msu_mode=msu),
        )

    def test_registered_tensor_dataset(self, acc):
        from repro.datasets import registry

        t = registry.load_tensor("poisson3D")
        rng = make_rng(42)
        b = rng.random((t.shape[1], 16))
        c = rng.random((t.shape[2], 16))
        self.check(
            "dataset/poisson3D", acc.run_mttkrp(t, b, c, compute_output=False)
        )

    def test_registered_matrix_dataset(self, acc):
        from repro.datasets import registry

        m = registry.load_matrix("cora")
        rng = make_rng(43)
        b = rng.random((m.shape[1], 16))
        self.check("dataset/cora", acc.run_spmm(m, b, compute_output=False))


class TestFastModelOnly:
    def test_requires_3d(self):
        from repro.tensor import SparseTensor
        from repro.util.errors import KernelError
        flat = SparseTensor.from_entries((2, 2), [((0, 0), 1.0)])
        with pytest.raises(KernelError):
            FAST.mttkrp(flat, 8)

    def test_report_marked_fast(self):
        t = random_tensor(seed=1)
        rep = FAST.mttkrp(t, 8)
        assert rep.detail["model"] == "fast"
        assert rep.cycles >= 1
        assert rep.output is None


def _spearman(a, b) -> float:
    def rank(x):
        order = np.argsort(np.asarray(x), kind="stable")
        r = np.empty(len(x))
        r[order] = np.arange(len(x))
        return r

    ra, rb = rank(a), rank(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def _random_coo(shape, density, seed) -> COOMatrix:
    rng = make_rng(seed)
    total = shape[0] * shape[1]
    nnz = max(1, int(total * density))
    lin = rng.choice(total, size=nnz, replace=False)
    return COOMatrix(shape, lin // shape[1], lin % shape[1], rng.random(nnz))


class TestRankAgreement:
    """The fast model must *rank* design points like the cycle simulator.

    The auto-tuner's cheap tier (and its learned cost model's prior) is the
    fast model; if its ranking over a config grid decorrelated from the
    simulator's, the tuner's bootstrap round would explore garbage. The
    floors are deliberately below measured values (~0.84-1.0 at these
    sizes) so only a real regression trips them; SpMM's floor is lowest —
    its dense-column traffic makes bank-conflict approximation error a
    bigger share of the total.
    """

    #: (kernel, Spearman floor) — seeded, so these are stable.
    FLOORS = {"mttkrp": 0.85, "ttmc": 0.85, "spmm": 0.6, "spmv": 0.85}

    def _workloads(self):
        from repro.tune import TuneWorkload

        return {
            "mttkrp": TuneWorkload.mttkrp(
                random_tensor(shape=(80, 50, 40), density=0.05, seed=10), 32
            ),
            "ttmc": TuneWorkload.ttmc(
                random_tensor(shape=(60, 40, 30), density=0.05, seed=11), 16
            ),
            "spmm": TuneWorkload.spmm(_random_coo((200, 150), 0.05, 12), 32),
            "spmv": TuneWorkload.spmv(_random_coo((300, 300), 0.02, 13)),
        }

    @pytest.mark.parametrize("kernel", ["mttkrp", "ttmc", "spmm", "spmv"])
    def test_spearman_floor(self, kernel):
        from repro.tune import default_space

        wl = self._workloads()[kernel]
        space = default_space()
        every = space.points()
        pick = make_rng(0).choice(len(every), size=16, replace=False)
        points = [every[i] for i in sorted(pick.tolist())]
        runner = wl.runner()
        sim_cycles, fast_cycles = [], []
        for params in points:
            cfg = space.base.scaled(**params)
            sim_cycles.append(runner(Tensaurus(cfg)).cycles)
            fast_cycles.append(wl.fast_report(cfg).cycles)
        rho = _spearman(sim_cycles, fast_cycles)
        assert rho >= self.FLOORS[kernel], (
            f"{kernel}: fast-vs-sim Spearman {rho:.3f} fell below "
            f"{self.FLOORS[kernel]} over a 16-point seeded config grid"
        )
