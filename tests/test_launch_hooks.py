"""Every launch looks its hooks up when it runs, not when it is imported.

The e2e layer shims (``benchmarks/e2e/layers.py``) wrap module globals of
:mod:`repro.sim.accelerator` (the operand fingerprint, the tile analyzer
and the four sparse functional kernels), and ``bench_obs_overhead.py``
swaps out ``Tensaurus._finish_launch_obs``. A launch path that bound any
of them ahead of time, in a dispatch table or a default argument, would go
around those wrappers: the e2e ``kernels.*.calls`` metrics would read 0
and no other test would fail.
"""

from collections import Counter

import pytest

from repro.formats import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.sim import Tensaurus, accelerator
from repro.util.rng import make_rng

from tests.conftest import random_tensor

#: Module globals of ``repro.sim.accelerator`` the layer shims wrap.
SHIMMED = (
    "fingerprint_arrays",
    "analyze_tile_stream",
    "mttkrp_sparse_factored",
    "ttmc_sparse_factored",
    "spmm_ref",
    "spmv_ref",
)


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of every shimmed global and of the obs hook."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in SHIMMED:
        monkeypatch.setattr(
            accelerator, name, counted(name, getattr(accelerator, name))
        )
    monkeypatch.setattr(
        Tensaurus, "_finish_launch_obs",
        counted("_finish_launch_obs", Tensaurus._finish_launch_obs),
    )
    return counts


@pytest.mark.parametrize(
    "family, kernel",
    [
        ("mttkrp", "mttkrp_sparse_factored"),
        ("ttmc", "ttmc_sparse_factored"),
        ("spmm", "spmm_ref"),
        ("spmv", "spmv_ref"),
    ],
)
def test_cold_launch_calls_every_hook(calls, family, kernel):
    rng = make_rng(2)
    t = random_tensor(shape=(14, 11, 9), density=0.3, seed=4)
    coo = COOMatrix.from_dense(
        (rng.random((16, 12)) < 0.3) * rng.standard_normal((16, 12))
    )
    acc = Tensaurus()  # a fresh encoding cache: the launch is cold
    if family == "mttkrp":
        acc.run_mttkrp(t, rng.random((14, 4)), rng.random((9, 4)), mode=1)
    elif family == "ttmc":
        acc.run_ttmc(t, rng.random((14, 4)), rng.random((11, 3)), mode=2)
    elif family == "spmm":
        acc.run_spmm(coo, rng.random((12, 5)))
    else:
        acc.run_spmv(CSRMatrix.from_coo(coo), rng.random(12))
    assert calls == {
        "fingerprint_arrays": 1,
        "analyze_tile_stream": 1,
        kernel: 1,
        "_finish_launch_obs": 1,
    }
