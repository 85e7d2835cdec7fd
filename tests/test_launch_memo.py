"""The degradation ladder's launch memo and the replay primitive under it.

Every test here is written to fail on a naive memo: one that skips the
fault draws of a replayed launch, stores faulted reports, hands out
aliased reports, or reports replays to nobody.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.serving import (
    FleetConfig,
    TenantQuota,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.ladder import (
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
    DegradationLadder,
)
from repro.serving.trace import WorkloadItem
from repro.sim import Tensaurus
from repro.sim.faults import FaultPlan
from repro.util.errors import FaultError
from repro.util.rng import make_rng

SEED = 13


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED)


@pytest.fixture
def live_runs(monkeypatch):
    """Accelerators whose ``WorkloadItem.run`` calls are counted."""
    counts = {}
    real = WorkloadItem.run

    def counting(self, kernel, accelerator, compute_output=True):
        counts[id(accelerator)] = counts.get(id(accelerator), 0) + 1
        return real(self, kernel, accelerator, compute_output)

    monkeypatch.setattr(WorkloadItem, "run", counting)
    return lambda acc: counts.get(id(acc), 0)


def launches(pool, n, seed=SEED):
    """A seeded sequence of (kernel, workload, simulator tier)."""
    rng = make_rng(seed)
    pairs = pool.choices()
    tiers = (TIER_FULL, TIER_BATCHED)
    return [
        (*pairs[int(i)], tiers[int(t)])
        for i, t in zip(rng.integers(0, len(pairs), n),
                        rng.integers(0, 2, n))
    ]


def fields(report):
    """Every field of a report, output by bytes."""
    out = report.output
    return (
        report.kernel, report.cycles, report.ops, report.tensor_bytes,
        report.matrix_bytes, report.output_bytes, report.clock_ghz,
        report.detail, report.faults, report.fault_events,
        None if out is None else (out.shape, out.dtype.str, out.tobytes()),
    )


def outcome(call):
    try:
        return fields(call())
    except FaultError as exc:
        return ("FaultError", str(exc))


def compare_with_twin(pool, plan, n=150):
    """Outcomes of ``n`` launches through a ladder and directly on a twin."""
    ladder = DegradationLadder()
    acc = Tensaurus(fault_plan=plan, fault_epoch=1)
    twin = Tensaurus(fault_plan=plan, fault_epoch=1)
    got, want = [], []
    for kernel, name, tier in launches(pool, n):
        item = pool[name]
        got.append(outcome(
            lambda: ladder.execute(tier, item, kernel, acc)[0]
        ))
        want.append(outcome(
            lambda: item.run(kernel, twin, compute_output=tier == TIER_FULL)
        ))
    return acc, twin, got, want


def test_replayed_launches_draw_the_live_fault_stream(pool, live_runs):
    plan = FaultPlan(seed=3, launch_abort_rate=0.08, pe_lane_dropout_rate=0.02)
    acc, twin, got, want = compare_with_twin(pool, plan, n=200)
    assert got == want
    assert acc.fault_state.runs == twin.fault_state.runs
    aborted = sum(o[0] == "FaultError" for o in got)
    dropped = sum(o[0] != "FaultError" and bool(o[9]) for o in got)
    assert aborted > 5 and dropped > 5
    # Most launches replayed; every faulted one ran live.
    assert aborted + dropped <= live_runs(acc) < len(got) // 2


@pytest.mark.parametrize("hazard", [
    {"hbm_stall_rate": 1e-3},
    {"hbm_outage_rate": 1e-3},
    {"spm_bitflip_rate": 1e-3},
])
def test_tile_hazard_plans_never_replay(pool, live_runs, hazard):
    plan = FaultPlan(seed=5, launch_abort_rate=0.1, **hazard)
    acc, twin, got, want = compare_with_twin(pool, plan, n=40)
    assert got == want
    assert acc.fault_state.runs == twin.fault_state.runs
    assert live_runs(acc) == len(got)
    assert not acc.fault_state.replayable


def test_declined_replay_consumes_nothing(pool):
    item = pool["tensor-s"]
    clean = item.run("mttkrp", Tensaurus())
    acc = Tensaurus(fault_plan=FaultPlan(hbm_stall_rate=1e-3))
    assert acc.replay(clean) is None
    assert acc.fault_state.runs == 0
    plain = Tensaurus()
    assert plain.replay(clean).faults == {}


@pytest.mark.parametrize("order", [
    (TIER_FULL, TIER_BATCHED), (TIER_BATCHED, TIER_FULL),
])
@pytest.mark.parametrize("name, kernel", [
    ("tensor-s", "mttkrp"), ("tensor-s", "ttmc"),
    ("matrix-s", "spmm"), ("matrix-s", "spmv"),
])
def test_one_live_launch_answers_both_simulator_tiers(
    pool, live_runs, name, kernel, order
):
    item = pool[name]
    ladder = DegradationLadder()
    acc = Tensaurus()
    for tier in order:
        report = ladder.execute(tier, item, kernel, acc)[0]
        want = item.run(kernel, Tensaurus(), compute_output=tier == TIER_FULL)
        assert fields(report) == fields(want)
    assert live_runs(acc) == 1


def test_returned_reports_share_no_mutable_state(pool):
    ladder = DegradationLadder()
    acc = Tensaurus()
    item = pool["matrix-s"]
    direct = item.run("spmm", Tensaurus())
    for tier in (TIER_FULL, TIER_BATCHED, TIER_ANALYTIC):
        first = ladder.execute(tier, item, "spmm", acc)[0]
        expected = fields(first)
        for _ in range(2):
            report = ladder.execute(tier, item, "spmm", acc)[0]
            assert fields(report) == expected
            report.cycles += 1
            report.detail["msu_mode"] = "mutated"
            report.faults["spm_bitflips"] = 1
            report.fault_events.append(None)
        first.ops += 7
        assert fields(ladder.execute(tier, item, "spmm", acc)[0]) == expected
    hit = ladder.execute(TIER_FULL, item, "spmm", acc)[0]
    assert fields(hit)[1:] == fields(direct)[1:]
    assert not hit.output.flags.writeable
    with pytest.raises(ValueError):
        hit.output[0, 0] = 1.0


def test_observed_fleet_reports_every_replayed_launch(live_runs):
    pool = WorkloadPool(seed=SEED, variants=2)
    requests = synthetic_trace(
        pool, duration_s=0.4, base_rate=600.0, spike_factor=1.0,
        deadline_s=0.05, seed=SEED,
    )
    config = FleetConfig(
        seed=SEED, shards=3, autoscale=False, queue_depth=32,
        tenant_default=TenantQuota(rate=1.0e5),
    )
    plan = FaultPlan(seed=SEED, launch_abort_rate=0.05)
    fleet = TensaurusFleet(config, fault_plan=plan, pool=pool,
                           calibrate=False)
    ladder = fleet.ladder
    executed = []
    execute = ladder.execute

    def counted(tier, item, kernel, accelerator=None):
        result = execute(tier, item, kernel, accelerator)
        if tier != TIER_ANALYTIC:
            executed.append(result[0].cycles)
        return result

    ladder.execute = counted
    with obs.observe() as ob:
        result = fleet.run_trace(requests)
    snap = ob.registry.snapshot()
    assert result.counters["faults"] > 0
    assert snap["sim.launches"]["value"] == len(executed)
    assert snap["sim.cycles"]["value"] == sum(executed)
    assert snap["sim.phase_cycles"]["value"] == snap["sim.cycles"]["value"]
    launched = [e for e in ob.tracer.events
                if e.get("cat") == "sim.launch" and e["ph"] == "B"]
    assert len(launched) == len(executed)
    accelerators = [
        acc for shard in fleet.shards.values()
        for acc in shard.server.accelerators
    ]
    assert sum(live_runs(acc) for acc in accelerators) < len(executed) // 4
    # At most one simulator and one analytic entry for each (kernel,
    # workload) served.
    assert len(ladder._memo) <= 2 * len(pool.choices())
