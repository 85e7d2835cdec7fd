"""Budgeted randomized search over the fault-schedule space.

:class:`ChaosRunner` executes one :class:`~repro.chaos.schedule.
ChaosSchedule` against the real serving fleet — twice from the same
seed for the determinism digest, with a :class:`~repro.obs.probe.
ChaosProbe` and :class:`~repro.obs.reqtrace.RequestTracer` installed on
the first run, plus a checkpoint/resume-equivalence leg on the
factorization path — and packages everything into a
:class:`~repro.chaos.invariants.ChaosObservation`.
:class:`ChaosSearch` drives the runner across a seeded generator's
schedules within a budget, checking every invariant on every run.

``mutator`` is the mutation-testing hook: a callable applied to each
run's :class:`~repro.serving.fleet.FleetResult` *symmetrically* (both
the primary run and the replay), so an injected bug trips exactly the
invariant it targets while determinism stays green — which is how tests
and the benchmark prove the harness actually catches violations and
shrinks them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs as obs_mod
from repro.artifacts import fingerprint_value
from repro.chaos.invariants import (
    DEFAULT_INVARIANTS,
    Checker,
    ChaosObservation,
    Violation,
    check_all,
)
from repro.chaos.schedule import ChaosSchedule, ScheduleGenerator
from repro.datasets.generators import random_sparse_tensor
from repro.factorization.accelerated import accelerated_cp_als
from repro.obs.probe import ChaosProbe
from repro.obs.reqtrace import RequestTracer
from repro.resilience import CheckpointStore, RetryPolicy
from repro.serving.fleet import FleetConfig, FleetResult, TensaurusFleet
from repro.serving.ladder import (
    TIER_ANALYTIC,
    DegradationLadder,
    calibrate_analytic_error,
)
from repro.serving.request import STATUS_OK, ServingRequest
from repro.serving.trace import WorkloadPool, synthetic_trace
from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.faults import HBM_OUTAGE, SHARD_KILL, FaultPlan
from repro.util.errors import RetryExhaustedError
from repro.util.rng import derive_seed

__all__ = [
    "MUTATIONS",
    "ChaosRunner",
    "ChaosSearch",
    "SearchOutcome",
]

logger = obs_mod.get_logger(__name__)

#: Deadline budget for chaos traces (matches the serving benchmarks).
_TRACE_DEADLINE_S = 0.05

#: Tenants the chaos trace spreads load over (exercises the governor).
_TRACE_TENANTS = ("acme", "beta")

#: Sweeps in the checkpoint-equivalence CP-ALS leg (straight run), and
#: where the split run breaks: ``_CP_SPLIT`` sweeps checkpoint, then a
#: second call resumes from the shared store for the rest.
_CP_ITERS = 2
_CP_SPLIT = 1
_CP_RANK = 3
_CP_SHAPE = (6, 7, 5)
_CP_NNZ = 60


def mutation_drop_response(
    schedule: ChaosSchedule, result: FleetResult
) -> None:
    """Injected bug: silently lose one served response.

    Armed only when the schedule contains both a shard kill and an HBM
    outage — so the minimal reproducer is exactly two events, which is
    what the shrinker must find. Deterministic (highest request id) and
    applied to both runs, so only ``no_lost_admitted_work`` fires.
    """
    kinds = {ev.kind for ev in schedule.events}
    if SHARD_KILL not in kinds or HBM_OUTAGE not in kinds:
        return
    served = [r for r in result.responses if r.status == STATUS_OK]
    if not served:
        return
    victim = max(served, key=lambda r: r.request_id)
    result.responses.remove(victim)
    result.lost_request_ids.append(victim.request_id)


#: Registry of named fault injections for mutation testing.
MUTATIONS: Dict[str, Callable[[ChaosSchedule, FleetResult], None]] = {
    "drop_response": mutation_drop_response,
}


class ChaosRunner:
    """Executes schedules against the fleet and observes everything.

    The degradation ladder is calibrated **once**, over every (kernel,
    workload) pair in the pool (not a sample — the error-bound invariant
    needs a true bound), and injected into each fleet via the
    ``ladder=`` seam; a search over hundreds of schedules pays the
    calibration cost a single time. Ground-truth cycle counts for the
    error-bound check are memoized per (kernel, workload) the same way.
    """

    def __init__(
        self,
        sim_config: Optional[TensaurusConfig] = None,
        pool: Optional[WorkloadPool] = None,
        pool_seed: int = 77,
        mutator: Optional[Callable[[ChaosSchedule, FleetResult], None]] = None,
        checkpoint_leg: bool = True,
    ) -> None:
        self.sim_config = sim_config or TensaurusConfig()
        self.pool = (
            pool if pool is not None
            else WorkloadPool(seed=pool_seed, variants=2)
        )
        pairs = self.pool.choices()
        self.error_bound = calibrate_analytic_error(
            self.sim_config, self.pool, seed=pool_seed, probes=len(pairs)
        )
        self.ladder = DegradationLadder(self.sim_config, self.error_bound)
        self.mutator = mutator
        self.checkpoint_leg = checkpoint_leg
        self._true_cycles: Dict[Tuple[str, str], int] = {}
        self.runs = 0

    # ------------------------------------------------------------------
    def trace(self, schedule: ChaosSchedule) -> List[ServingRequest]:
        """The deterministic request trace a schedule runs against."""
        return synthetic_trace(
            self.pool,
            duration_s=schedule.duration_s,
            base_rate=schedule.base_rate,
            spike_factor=schedule.spike_factor,
            deadline_s=_TRACE_DEADLINE_S,
            seed=derive_seed(schedule.seed, "chaos-trace"),
            tenants=_TRACE_TENANTS,
        )

    def _execute(
        self,
        schedule: ChaosSchedule,
        plan: FaultPlan,
        requests: List[ServingRequest],
        observe: bool,
    ) -> Tuple[FleetResult, str, Optional[ChaosProbe], Optional[str]]:
        """One fleet run; returns (result, digest, probe, reconcile_err)."""
        cfg = FleetConfig(
            seed=schedule.seed,
            shards=schedule.shards,
            replicas_per_shard=schedule.replicas_per_shard,
            queue_depth=schedule.queue_depth,
            hedging=True,
        )
        fleet = TensaurusFleet(
            cfg, self.sim_config, fault_plan=plan, pool=self.pool,
            calibrate=False, ladder=self.ladder,
        )
        probe: Optional[ChaosProbe] = None
        if observe:
            # Only the probe and a request tracer go in (the span tracer
            # and registry stay as they are), and the replay runs plain:
            # observational purity is itself under test via the
            # determinism digest.
            probe, tracer = ChaosProbe(), RequestTracer(seed=schedule.seed)
            with obs_mod.observe(obs_mod.tracer(), obs_mod.metrics(),
                                 requests=tracer, probe=probe):
                result = fleet.run_trace(requests)
        else:
            result = fleet.run_trace(requests)
        if self.mutator is not None:
            self.mutator(schedule, result)
        reconcile_error: Optional[str] = None
        if observe:
            try:
                tracer.reconcile(result)
            except ValueError as exc:
                reconcile_error = str(exc)
        digest = fingerprint_value(
            "chaos-run",
            schedule.digest(),
            tuple(result.decision_log),
            tuple(
                r.log_row()
                for r in sorted(result.responses, key=lambda r: r.request_id)
            ),
            tuple(sorted(result.counters.items())),
        )
        return result, digest, probe, reconcile_error

    # ------------------------------------------------------------------
    def _true_cycles_for(self, kernel: str, workload: str) -> int:
        key = (kernel, workload)
        if key not in self._true_cycles:
            acc = Tensaurus(self.sim_config)
            report = self.pool[workload].run(
                kernel, acc, compute_output=False
            )
            self._true_cycles[key] = int(report.cycles)
        return self._true_cycles[key]

    def _analytic_errors(
        self, result: FleetResult, requests: List[ServingRequest]
    ) -> List[Tuple[int, float]]:
        """(request_id, relative cycle error) per degraded analytic answer."""
        by_rid = {req.request_id: req for req in requests}
        out: List[Tuple[int, float]] = []
        for resp in result.responses:
            if (
                resp.status != STATUS_OK or resp.tier != TIER_ANALYTIC
                or resp.report is None
            ):
                continue
            req = by_rid[resp.request_id]
            true = self._true_cycles_for(req.kernel, req.workload)
            rel = abs(int(resp.report.cycles) - true) / true
            out.append((resp.request_id, float(rel)))
        return out

    # ------------------------------------------------------------------
    def _checkpoint_equivalence(
        self, schedule: ChaosSchedule, plan: FaultPlan
    ) -> Tuple[Optional[bool], str]:
        """Straight vs. checkpoint-resumed CP-ALS under the schedule's
        accelerator-level faults: the reconstructed models must agree.

        The comparison is on the reconstruction (weights folded back
        into the factors), not the raw factor matrices: ``cp_als``
        column-normalizes by 2-norm on its first sweep and max-norm
        afterwards, so a resumed run splits the same model into
        ``(weights, factors)`` differently — a representation choice,
        not a divergence. Models agree to ~1e-15 relative when resume is
        correct and by ~1e-1 when it is not, so the 1e-9 gate below is
        unambiguous. The leg's plan keeps only *detected, retryable*
        hazards (launch aborts and HBM outages, clamped, full detection
        coverage) — an undetected bit flip legitimately changes results
        and would turn the invariant into noise. Exhausted retries are a
        liveness outcome, not a correctness violation: reported as
        skipped.
        """
        cp_seed = derive_seed(schedule.seed, "chaos-cp")
        leg_plan = FaultPlan(
            seed=cp_seed,
            launch_abort_rate=min(0.3, plan.launch_abort_rate),
            hbm_outage_rate=min(0.3, plan.hbm_outage_rate),
            detection_coverage=1.0,
        )
        tensor = random_sparse_tensor(
            _CP_SHAPE, _CP_NNZ, seed=derive_seed(cp_seed, "tensor")
        )
        policy = RetryPolicy(
            max_retries=12, backoff_base_s=0.0, jitter=0.0, seed=cp_seed
        )
        nosleep = lambda _s: None  # noqa: E731

        def fit(num_iters: int, store: Optional[CheckpointStore], epoch: int):
            acc = Tensaurus(
                self.sim_config, fault_plan=leg_plan, fault_epoch=epoch
            )
            return accelerated_cp_als(
                tensor, _CP_RANK, num_iters=num_iters, seed=cp_seed,
                accelerator=acc, checkpoint_store=store,
                retry_policy=policy, sleep=nosleep,
            )

        try:
            straight = fit(_CP_ITERS, None, 0)
            store = CheckpointStore(keep=_CP_ITERS + 1)
            fit(_CP_SPLIT, store, 1000)
            resumed = fit(_CP_ITERS, store, 2000)
        except RetryExhaustedError as exc:
            return None, f"skipped: retries exhausted ({exc})"

        def reconstruct(dec) -> np.ndarray:
            a, b, c = dec.factors
            return np.einsum(
                "r,ir,jr,kr->ijk", dec.weights, a, b, c
            )

        model_a = reconstruct(straight.decomposition)
        model_b = reconstruct(resumed.decomposition)
        denom = max(float(np.abs(model_a).max()), 1e-12)
        rel = float(np.abs(model_a - model_b).max()) / denom
        if rel > 1e-9:
            return False, f"reconstructed models diverged (rel {rel:.3e})"
        if resumed.resilience.get("resumed_iteration", 0) < _CP_SPLIT:
            return False, "resumed run did not start from the checkpoint"
        return True, (
            f"resumed from sweep {resumed.resilience['resumed_iteration']}"
            f", rel diff {rel:.1e}"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: ChaosSchedule,
        replay: bool = True,
        checkpoint: bool = True,
    ) -> ChaosObservation:
        """Execute one schedule and return its full observation.

        ``replay=False`` skips the second (determinism) run and
        ``checkpoint=False`` the CP-ALS leg — the shrinker uses these
        when the invariant it is chasing doesn't need them.
        """
        plan = schedule.fault_plan()
        requests = self.trace(schedule)
        result, digest, probe, reconcile_error = self._execute(
            schedule, plan, requests, observe=True
        )
        if replay:
            _, replay_digest, _, _ = self._execute(
                schedule, plan, requests, observe=False
            )
        else:
            replay_digest = digest
        cp_equal: Optional[bool] = None
        cp_detail = "skipped: leg disabled"
        if checkpoint and self.checkpoint_leg:
            cp_equal, cp_detail = self._checkpoint_equivalence(
                schedule, plan
            )
        self.runs += 1
        return ChaosObservation(
            schedule=schedule,
            result=result,
            digest=digest,
            replay_digest=replay_digest,
            probe=probe,
            reconcile_error=reconcile_error,
            checkpoint_equal=cp_equal,
            checkpoint_detail=cp_detail,
            error_bound=self.ladder.analytic_error_bound,
            analytic_errors=self._analytic_errors(result, requests),
        )

    def violated(
        self,
        schedule: ChaosSchedule,
        invariants: Optional[Dict[str, Checker]] = None,
        replay: bool = True,
        checkpoint: bool = True,
    ) -> List[str]:
        """Names of the invariants ``schedule`` violates (shrink oracle)."""
        observation = self.run(
            schedule, replay=replay, checkpoint=checkpoint
        )
        return sorted(
            {v.invariant for v in check_all(observation, invariants)}
        )


# ----------------------------------------------------------------------
@dataclass
class SearchOutcome:
    """Everything one budgeted search produced."""

    seed: int
    budget: int
    records: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Tuple[ChaosSchedule, List[Violation]]] = field(
        default_factory=list
    )
    elapsed_s: float = 0.0

    @property
    def schedules_run(self) -> int:
        return len(self.records)

    @property
    def violation_count(self) -> int:
        return sum(len(v) for _, v in self.failures)

    @property
    def schedules_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.schedules_run / self.elapsed_s

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "violations": self.violation_count,
            "elapsed_s": self.elapsed_s,
            "schedules_per_s": self.schedules_per_s,
            "records": self.records,
            "failures": [
                {
                    "schedule": sched.to_json(),
                    "violations": [v.to_json() for v in violations],
                }
                for sched, violations in self.failures
            ],
        }


class ChaosSearch:
    """Budgeted seeded search: generate, execute, judge, record."""

    def __init__(
        self,
        runner: ChaosRunner,
        generator: ScheduleGenerator,
        invariants: Optional[Dict[str, Checker]] = None,
    ) -> None:
        self.runner = runner
        self.generator = generator
        self.invariants = dict(invariants or DEFAULT_INVARIANTS)

    def run(
        self,
        budget: int,
        start: int = 0,
        stop_on_failure: bool = False,
    ) -> SearchOutcome:
        t0 = time.perf_counter()
        outcome = SearchOutcome(seed=self.generator.seed, budget=budget)
        for i in range(budget):
            index = start + i
            schedule = self.generator.generate(index)
            observation = self.runner.run(schedule)
            violations = check_all(observation, self.invariants)
            outcome.records.append({
                "index": index,
                "seed": schedule.seed,
                "events": schedule.event_count,
                "schedule_digest": schedule.digest(),
                "run_digest": observation.digest,
                "checked": list(self.invariants),
                "violations": [v.to_json() for v in violations],
            })
            if violations:
                outcome.failures.append((schedule, violations))
                logger.warning(
                    "chaos schedule %d violated %s",
                    index,
                    sorted({v.invariant for v in violations}),
                )
                if stop_on_failure:
                    break
        outcome.elapsed_s = time.perf_counter() - t0
        return outcome
