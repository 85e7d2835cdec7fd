"""Tests for the fault-injection layer (:mod:`repro.sim.faults`).

The two load-bearing properties, asserted here across every kernel path:

- a rate-0.0 (or absent) plan leaves reports **bit-identical** to the
  pre-fault simulator — the fault layer costs nothing when off;
- an armed plan is **deterministic**: the same plan against the same
  workload replays the identical fault timeline (counters, events,
  cycles) across runs, and matches the digest frozen from the deleted
  per-tile engine.
"""

import numpy as np
import pytest

from repro.formats import CISSTensor, COOMatrix
from repro.formats.csr import CSRMatrix
from repro.sim import FaultPlan, MultiChipTensaurus, Tensaurus, TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.event import EventDrivenTensaurus
from repro.sim.faults import CHIP_FAILURE, LANE_DROPOUT
from repro.kernels import mttkrp_sparse
from repro.tensor import SparseTensor
from repro.util.errors import ConfigError, FaultError
from repro.util.rng import make_rng

from tests.conftest import digest, random_tensor
from tests.test_perfmodel_agreement import report_fields

#: Small SPM so the test workloads tile into many fault-draw targets.
CFG = TensaurusConfig(spm_kb=2, msu_kb=8)


def full_fields(report):
    """Timing fields plus the fault accounting, for exact comparison."""
    return (
        report_fields(report),
        tuple(sorted(report.faults.items())),
        tuple(map(repr, report.fault_events)),
    )


def _operands(seed=3):
    # Large dims + low density: tiles into ~64 SPM tiles under CFG, so the
    # per-tile fault draws have a real population, while staying fast.
    shape = (1024, 256, 256)
    rng = make_rng(seed)
    coords = np.stack([rng.integers(0, s, 10_000) for s in shape], axis=1)
    coords = np.unique(coords, axis=0)
    t = SparseTensor(shape, coords, rng.standard_normal(coords.shape[0]))
    return t, rng.random((shape[1], 8)), rng.random((shape[2], 8))


def _sparse_matrix(seed=4, shape=(40, 30)):
    rng = make_rng(seed)
    dense = (rng.random(shape) < 0.25) * (rng.random(shape) + 0.1)
    return COOMatrix.from_dense(dense)


RUNNERS = {
    "mttkrp": lambda acc: acc.run_mttkrp(*_operands(), compute_output=False),
    "ttmc": lambda acc: acc.run_ttmc(*_operands(), compute_output=False),
    "spmm": lambda acc: acc.run_spmm(
        CSRMatrix.from_coo(_sparse_matrix()),
        make_rng(5).random((30, 8)),
        compute_output=False,
    ),
    "spmv": lambda acc: acc.run_spmv(
        CSRMatrix.from_coo(_sparse_matrix()),
        make_rng(6).random(30),
        compute_output=False,
    ),
    "dense_mttkrp": lambda acc: acc.run_mttkrp(
        make_rng(7).random((10, 8, 6)),
        make_rng(8).random((8, 4)),
        make_rng(9).random((6, 4)),
        compute_output=False,
    ),
    "gemm": lambda acc: acc.run_spmm(
        make_rng(10).random((24, 18)),
        make_rng(11).random((18, 8)),
        compute_output=False,
    ),
}

ARMED_PLAN = FaultPlan(
    seed=13,
    spm_bitflip_rate=0.1,
    hbm_stall_rate=0.1,
    hbm_outage_rate=0.05,
)


class TestRateZeroBitIdentity:
    @pytest.mark.parametrize("kernel", sorted(RUNNERS))
    def test_disabled_plan_is_identical_to_no_plan(self, kernel):
        run = RUNNERS[kernel]
        bare = run(Tensaurus(CFG))
        zero_plan = run(Tensaurus(CFG, fault_plan=FaultPlan(seed=99)))
        via_config = run(
            Tensaurus(TensaurusConfig(spm_kb=2, msu_kb=8, fault_plan=FaultPlan()))
        )
        assert full_fields(zero_plan) == full_fields(bare)
        assert full_fields(via_config) == full_fields(bare)
        assert bare.faults == {} and bare.fault_events == []
        assert bare.recovery_cycles == 0
        assert bare.fault_free_cycles == bare.cycles

    def test_rate_zero_property_over_random_workloads(self):
        # Property-style: many random tensors, always bit-identical.
        for seed in range(6):
            t = random_tensor(shape=(30, 14, 10), density=0.25, seed=seed)
            rng = make_rng(seed)
            b, c = rng.random((14, 6)), rng.random((10, 6))
            bare = Tensaurus(CFG).run_mttkrp(t, b, c, compute_output=False)
            zero = Tensaurus(CFG, fault_plan=FaultPlan(seed=seed)).run_mttkrp(
                t, b, c, compute_output=False
            )
            assert full_fields(zero) == full_fields(bare)


class TestDeterministicReplay:
    @pytest.mark.parametrize("kernel", ["mttkrp", "spmm"])
    def test_fresh_accelerators_replay_identically(self, kernel):
        run = RUNNERS[kernel]
        first = run(Tensaurus(CFG, fault_plan=ARMED_PLAN))
        again = run(Tensaurus(CFG, fault_plan=ARMED_PLAN))
        assert full_fields(first) == full_fields(again)
        assert first.faults.get("fault_overhead_cycles", 0) > 0

    def test_run_counter_decorrelates_repeats_but_replays(self):
        a1, a2 = (Tensaurus(CFG, fault_plan=ARMED_PLAN) for _ in range(2))
        seq1 = [full_fields(RUNNERS["mttkrp"](a1)) for _ in range(3)]
        seq2 = [full_fields(RUNNERS["mttkrp"](a2)) for _ in range(3)]
        assert seq1 == seq2  # the whole sequence replays
        assert len(set(seq1)) > 1  # but runs draw independent streams

    def test_epoch_changes_the_draws(self):
        base = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=ARMED_PLAN))
        other = RUNNERS["mttkrp"](
            Tensaurus(CFG, fault_plan=ARMED_PLAN, fault_epoch=1)
        )
        assert full_fields(base) != full_fields(other)


#: ``digest(full_fields(...))`` of the MTTKRP runner under ARMED_PLAN,
#: computed with the per-tile reference engine (encoding cache off) before
#: it was deleted; never re-baseline it.
PER_TILE_FAULTED_GOLDEN = (
    "f3581a5eb2d57d894dccfc83cd78f220c4eaeb3444788716fb751344e93ce7ee"
)


class TestEngineParityUnderFaults:
    def test_batched_and_per_tile_engines_agree(self):
        report = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=ARMED_PLAN))
        assert report.faults.get("fault_overhead_cycles", 0) > 0
        assert digest(full_fields(report)) == PER_TILE_FAULTED_GOLDEN


class TestRecoveryAccounting:
    def test_overhead_is_itemized_and_additive(self):
        clean = RUNNERS["mttkrp"](Tensaurus(CFG))
        faulty = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=ARMED_PLAN))
        assert faulty.recovery_cycles == faulty.faults["fault_overhead_cycles"]
        assert faulty.cycles == clean.cycles + faulty.recovery_cycles
        assert faulty.fault_free_cycles == clean.cycles
        # Replayed tiles re-fetch their streams.
        if faulty.faults.get("tile_replays"):
            assert faulty.tensor_bytes > clean.tensor_bytes
        assert "recovery cycles" in faulty.summary()

    def test_checksum_cost_only_when_bitflips_modeled(self):
        stall_only = FaultPlan(seed=13, hbm_stall_rate=0.2)
        report = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=stall_only))
        assert "checksum_cycles" not in report.faults
        assert report.faults.get("hbm_stalls", 0) > 0


class TestLaneDropout:
    def test_forced_drop_degrades_not_kills(self):
        clean = RUNNERS["mttkrp"](Tensaurus(CFG))
        plan = FaultPlan(seed=13, forced_lane_drops=(0, 1, 2, 3))
        report = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=plan))
        assert report.faults["active_lanes"] == CFG.rows - 4
        assert report.faults["lanes_dropped"] == 4
        assert report.cycles > clean.cycles
        kinds = [e.kind for e in report.fault_events]
        assert kinds.count(LANE_DROPOUT) == 4
        # Functional output is untouched by the timing-layer dropout.
        t, b, c = _operands()
        out = Tensaurus(CFG, fault_plan=plan).run_mttkrp(
            t, b, c, compute_output=True
        )
        assert np.allclose(out.output, mttkrp_sparse(t, [b, c], 0))

    def test_at_least_one_lane_survives(self):
        plan = FaultPlan(seed=13, forced_lane_drops=tuple(range(CFG.rows)))
        report = RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=plan))
        assert report.faults["active_lanes"] == 1


class TestLaunchAbort:
    def test_certain_abort_raises_fault_error(self):
        plan = FaultPlan(seed=13, launch_abort_rate=1.0)
        with pytest.raises(FaultError):
            RUNNERS["mttkrp"](Tensaurus(CFG, fault_plan=plan))

    def test_epoch_advance_re_draws(self):
        plan = FaultPlan(seed=2, launch_abort_rate=0.5)
        acc = Tensaurus(CFG, fault_plan=plan)
        outcomes = []
        for _ in range(8):
            try:
                RUNNERS["mttkrp"](acc)
                outcomes.append("ok")
            except FaultError:
                outcomes.append("abort")
        assert "ok" in outcomes and "abort" in outcomes


class TestPlanValidation:
    def test_rates_bounded(self):
        with pytest.raises(ConfigError):
            FaultPlan(spm_bitflip_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(launch_abort_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(hbm_channels=1)

    def test_enabled(self):
        assert not FaultPlan().enabled
        assert FaultPlan(forced_lane_drops=(2,)).enabled
        assert FaultPlan(hbm_stall_rate=0.01).enabled


class TestEventEngineStalls:
    def _setup(self, fault_plan=None):
        t = random_tensor(shape=(16, 12, 10), density=0.2, seed=80)
        rng = make_rng(42)
        b = rng.standard_normal((12, 6))
        c = rng.standard_normal((10, 6))
        cfg = TensaurusConfig()
        ciss = CISSTensor.from_sparse(t, cfg.rows)
        costs = kernel_costs("spmttkrp", cfg, fiber_elems=6)
        engine = EventDrivenTensaurus(
            cfg, costs, fiber0=c, fiber1=b, fault_plan=fault_plan
        )
        return engine.run(ciss, (16, 6)), t, b, c

    def test_injected_stalls_lengthen_execution(self):
        clean, t, b, c = self._setup()
        plan = FaultPlan(seed=21, hbm_stall_rate=0.05, hbm_stall_cycles=25)
        faulty, *_ = self._setup(plan)
        assert faulty.injected_stall_cycles > 0
        assert faulty.cycles > clean.cycles
        assert len(faulty.fault_events) > 0
        # The stall is structural back-pressure, never functional.
        assert np.allclose(faulty.output, clean.output)
        assert np.allclose(faulty.output, mttkrp_sparse(t, [b, c], 0))

    def test_zero_rate_is_identical(self):
        clean, *_ = self._setup()
        zero, *_ = self._setup(FaultPlan(seed=21))
        assert zero.cycles == clean.cycles
        assert zero.injected_stall_cycles == 0
        assert zero.fault_events == []


class TestMultiChipFailure:
    def _workload(self):
        t = random_tensor(shape=(36, 14, 10), density=0.25, seed=55)
        rng = make_rng(56)
        return t, rng.random((14, 6)), rng.random((10, 6))

    def test_forced_chip_failure_recovers(self):
        t, b, c = self._workload()
        plan = FaultPlan(seed=31, forced_chip_failures=(1,))
        farm = MultiChipTensaurus(3, CFG, fault_plan=plan)
        result = farm.run_mttkrp(t, b, c, mode=0, compute_output=True)
        assert result.failed_chips == [1]
        assert result.assignments[1].failed
        assert result.assignments[1].report is None
        assert [a.chip for a in result.recovery]  # survivors picked up work
        assert all(a.chip != 1 for a in result.recovery)
        assert result.recovery_span_s > 0
        assert result.makespan_s == pytest.approx(
            result.primary_span_s + result.recovery_span_s
        )
        assert any(e.kind == CHIP_FAILURE for e in result.fault_events)
        # The recovered output is the full, correct kernel result.
        combined = result.combined_output((t.shape[0], 6))
        assert np.allclose(combined, mttkrp_sparse(t, [b, c], 0))

    def test_failure_free_run_has_no_recovery(self):
        t, b, c = self._workload()
        farm = MultiChipTensaurus(3, CFG)
        result = farm.run_mttkrp(t, b, c, mode=0, compute_output=True)
        assert result.failed_chips == [] and result.recovery == []
        assert result.recovery_span_s == 0.0
        assert np.allclose(
            result.combined_output((t.shape[0], 6)),
            mttkrp_sparse(t, [b, c], 0),
        )

    def test_all_chips_failed_raises(self):
        t, b, c = self._workload()
        plan = FaultPlan(seed=31, forced_chip_failures=(0, 1))
        farm = MultiChipTensaurus(2, CFG, fault_plan=plan)
        with pytest.raises(FaultError):
            farm.run_mttkrp(t, b, c)

    def test_deterministic_across_farms(self):
        t, b, c = self._workload()
        plan = FaultPlan(seed=31, chip_failure_rate=0.3)
        spans = []
        for _ in range(2):
            farm = MultiChipTensaurus(4, CFG, fault_plan=plan)
            r = farm.run_mttkrp(t, b, c)
            spans.append((r.failed_chips, r.makespan_s))
        assert spans[0] == spans[1]
