"""Cross-validation benchmark — the three timing engines on one workload.

The repository carries three engines at different fidelity/speed points:
the event-driven microarchitecture model, the vectorized lane analyzer
(what the paper benchmarks use), and the closed-form fast model. This
benchmark runs all three on the same CISS tile and records their cycle
estimates side by side, asserting the documented agreement bands — the
reproduction's internal consistency check, in table form.
"""

import pytest

from repro.analysis import format_table
from repro.datasets import random_sparse_tensor
from repro.formats import CISSTensor
from repro.sim import FastModel, Tensaurus, TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.event import EventDrivenTensaurus
from repro.sim.lanes import analyze_lanes
from repro.util.rng import make_rng

from benchmarks.conftest import record_result, run_once

RANK = 16


@pytest.fixture(scope="module")
def agreement():
    cfg = TensaurusConfig()
    rng = make_rng(30)
    rows = []
    for density, seed in ((0.002, 1), (0.01, 2), (0.05, 3)):
        shape = (400, 120, 100)
        nnz = int(shape[0] * shape[1] * shape[2] * density)
        tensor = random_sparse_tensor(shape, nnz, skew=0.8, seed=seed)
        b = rng.random((shape[1], RANK))
        c = rng.random((shape[2], RANK))
        ciss = CISSTensor.from_sparse(tensor, cfg.rows)
        costs = kernel_costs("spmttkrp", cfg, fiber_elems=RANK)
        # Event-driven (single tile, compute only).
        event = EventDrivenTensaurus(cfg, costs, fiber0=c, fiber1=b).run(
            ciss, (shape[0], RANK)
        )
        # Vectorized lane analyzer on the same tile.
        stats = analyze_lanes(
            ciss.kinds, ciss.a_idx, ciss.k_idx, costs, cfg.spm_banks
        )
        rows.append((density, tensor, event, stats))
    return rows


def render_and_check(agreement):
    table = format_table(
        ["density", "nnz", "event cycles", "vectorized cycles", "ratio",
         "event stalls", "vectorized stalls"],
        [
            [d, t.nnz, ev.cycles, st.compute_cycles,
             ev.cycles / st.compute_cycles,
             ev.bank_conflict_stalls, st.conflict_stalls]
            for d, t, ev, st in agreement
        ],
    )
    record_result("engine_agreement", table)
    for d, _t, ev, st in agreement:
        ratio = ev.cycles / st.compute_cycles
        assert 0.7 < ratio < 1.8, (d, ratio)
        assert ev.ops == st.ops, d  # op accounting is engine-independent
    return table


def test_engine_agreement(agreement):
    render_and_check(agreement)


def test_fast_model_band():
    fm = FastModel()
    acc = Tensaurus()
    rng = make_rng(31)
    tensor = random_sparse_tensor((2000, 400, 300), 60_000, skew=0.9, seed=4)
    b = rng.random((400, RANK))
    c = rng.random((300, RANK))
    sim = acc.run_mttkrp(tensor, b, c, msu_mode="direct", compute_output=False)
    fast = fm.mttkrp(tensor, RANK, msu_mode="direct")
    assert 0.4 < fast.cycles / sim.cycles < 2.0


def test_benchmark_engine_agreement(benchmark, agreement):
    run_once(benchmark, lambda: render_and_check(agreement))
