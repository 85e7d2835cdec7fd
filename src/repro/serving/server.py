"""The overload-safe request server.

:class:`TensaurusServer` runs a request trace through a deterministic
discrete-event loop over *virtual* time: arrivals and completions live
on a heap, replicas are busy-until timestamps, and service durations
come from a seeded cost model (per-tier base + per-nonzero cost, times
a per-launch replica speed factor with an exponential tail). The actual
kernels still execute for real — a full-tier response carries the same
bit-identical :class:`repro.sim.SimReport` a direct
:meth:`repro.sim.Tensaurus.run_mttkrp` call would return — but *when*
things happen is simulated, which is what makes every admit / shed /
hedge / degrade decision replay exactly for a given seed.

Overload controls (all disabled in the ``shedding=False`` naive
baseline): token-bucket admission with ``retry_after`` hints, a bounded
priority queue with low-priority eviction, deadline-feasibility
shedding at dispatch, the three-tier degradation ladder, per-replica
circuit breakers with host-side analytic fallback, and hedged launches
with first-wins cancellation accounting. The server keeps its decision
log but reports to no observer; the fleet's loop is the observed one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.serving.breaker import (
    BREAKER_HALF_OPEN,
    CircuitBreaker,
    TokenBucket,
)
from repro.serving.config import ServingConfig
from repro.serving.ladder import (
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
    DegradationLadder,
    calibrate_analytic_error,
)
from repro.serving.request import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    ServingRequest,
    ServingResponse,
)
from repro.serving.trace import WorkloadPool
from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.faults import FaultPlan
from repro.util.errors import FaultError
from repro.util.rng import uniform

logger = obs.get_logger(__name__)

#: Fraction of the nominal service time after which a faulted launch is
#: detected (aborts surface early, not at the would-be completion).
_FAULT_DETECT_FRACTION = 0.25


@dataclass
class ServingResult:
    """Everything one trace replay produced."""

    responses: List[ServingResponse] = field(default_factory=list)
    decision_log: List[Tuple] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    analytic_error_bound: float = 0.0
    hedge_wasted_s: float = 0.0
    breaker_transitions: List[Tuple[int, float, str, str]] = field(
        default_factory=list
    )

    # ------------------------------------------------------------------
    @property
    def served(self) -> List[ServingResponse]:
        return [r for r in self.responses if r.status == STATUS_OK]

    @property
    def served_fraction(self) -> float:
        if not self.responses:
            return 0.0
        return len(self.served) / len(self.responses)

    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of *served* responses that met their deadline."""
        served = self.served
        if not served:
            return 0.0
        return sum(1 for r in served if r.deadline_hit) / len(served)

    @property
    def overall_hit_rate(self) -> float:
        """Deadline hits over *all* offered requests (shed counts miss)."""
        if not self.responses:
            return 0.0
        return sum(1 for r in self.responses if r.deadline_hit) / len(
            self.responses
        )

    @property
    def degraded_fraction(self) -> float:
        served = self.served
        if not served:
            return 0.0
        return sum(1 for r in served if r.degraded) / len(served)

    def latency_percentile(self, q: float) -> float:
        lats = [r.latency_s for r in self.served if r.latency_s is not None]
        if not lats:
            return 0.0
        return float(np.percentile(np.array(lats), q))

    def summary(self) -> Dict[str, Any]:
        return {
            "requests": len(self.responses),
            "served": len(self.served),
            "served_fraction": self.served_fraction,
            "deadline_hit_rate": self.deadline_hit_rate,
            "overall_hit_rate": self.overall_hit_rate,
            "degraded_fraction": self.degraded_fraction,
            "analytic_error_bound": self.analytic_error_bound,
            "hedge_wasted_s": self.hedge_wasted_s,
            "latency_p50_s": self.latency_percentile(50),
            "latency_p95_s": self.latency_percentile(95),
            "latency_p99_s": self.latency_percentile(99),
            "breaker_transitions": len(self.breaker_transitions),
            **{f"count_{k}": v for k, v in sorted(self.counters.items())},
        }


class TensaurusServer:
    """Deterministic overload-safe front end over simulated replicas."""

    def __init__(
        self,
        serving_config: Optional[ServingConfig] = None,
        sim_config: Optional[TensaurusConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        calibrate: bool = True,
        pool: Optional[WorkloadPool] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> None:
        self.config = serving_config or ServingConfig()
        self.sim_config = sim_config or TensaurusConfig()
        self.fault_plan = fault_plan
        self.pool = pool if pool is not None else WorkloadPool(self.config.seed)
        self.draining = False
        # Distinct fault epochs per replica: each backend draws an
        # independent (but deterministic) fault stream.
        self.accelerators = [
            Tensaurus(self.sim_config, fault_plan=fault_plan, fault_epoch=i)
            for i in range(self.config.replicas)
        ]
        if ladder is not None:
            # A fleet shares one calibrated ladder across every shard
            # instead of re-probing the analytic model per server.
            self.ladder = ladder
        else:
            error_bound = 0.0
            if calibrate:
                error_bound = calibrate_analytic_error(
                    self.sim_config, self.pool, seed=self.config.seed
                )
            self.ladder = DegradationLadder(self.sim_config, error_bound)
        self.bucket = TokenBucket(self.config.bucket_rate, self.config.bucket_burst)
        self.breakers = [
            CircuitBreaker(
                self.config.breaker_failure_threshold,
                self.config.breaker_cooldown_s,
                self.config.breaker_halfopen_probes,
            )
            for _ in range(self.config.replicas)
        ]

    # ------------------------------------------------------------------
    # Fleet hooks: drain and state handoff
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting new work; queued/in-flight work still finishes.

        Used by :class:`repro.serving.fleet.TensaurusFleet` when scaling
        a shard down: the fleet removes the shard from its routing ring,
        re-deals its queue, and calls this so any straggler arrival is
        rejected with ``reason="draining"`` instead of silently queued.
        """
        self.draining = True

    def handoff_state(self) -> Dict[str, Any]:
        """Snapshot of transferable state for a successor shard.

        Returns breaker states, admission-bucket fill, the calibrated
        analytic error bound, and each replica accelerator's encoding
        cache statistics — everything a fleet needs to log the drain and
        pre-warm a replacement.
        """
        return {
            "draining": self.draining,
            "breakers": [b.state for b in self.breakers],
            "bucket_tokens": self.bucket.tokens,
            "analytic_error_bound": self.ladder.analytic_error_bound,
            "cache_info": [a.cache_info() for a in self.accelerators],
        }

    # ------------------------------------------------------------------
    # Deterministic service-time model
    # ------------------------------------------------------------------
    def _speed_factor(self, request_id: int, replica: int, role: str) -> float:
        """Per-launch replica slowdown: 1 + jitter * Exp(1), seeded."""
        if self.config.service_jitter <= 0:
            return 1.0
        u = uniform(self.config.seed, "speed", request_id, replica, role)
        return 1.0 + self.config.service_jitter * -math.log1p(-u)

    def _nominal_s(self, tier: str, nnz: int) -> float:
        cfg = self.config
        if tier == TIER_FULL:
            return cfg.full_base_s + cfg.full_per_nnz_s * nnz
        if tier == TIER_BATCHED:
            return cfg.batched_base_s + cfg.batched_per_nnz_s * nnz
        return cfg.analytic_base_s

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def run_trace(self, requests: Sequence[ServingRequest]) -> ServingResult:
        """Replay ``requests`` through the virtual-time event loop."""
        cfg = self.config
        result = ServingResult(
            analytic_error_bound=self.ladder.analytic_error_bound
        )
        counters: Dict[str, int] = {
            "admitted": 0, "rejected": 0, "shed": 0, "evicted": 0,
            "served": 0, "degraded": 0, "hedged": 0, "hedge_wins": 0,
            "faults": 0, "failed": 0, "analytic_fallbacks": 0,
        }
        responses: Dict[int, ServingResponse] = {}
        log = result.decision_log

        # Event heap: (time, seq, kind, payload). Kinds: 0=arrival,
        # 1=replica-free. Seq breaks ties deterministically.
        events: List[Tuple[float, int, int, Any]] = []
        seq = 0
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.request_id)):
            heapq.heappush(events, (req.arrival_s, seq, 0, req))
            seq += 1
        # Bounded priority queue of waiting requests.
        queue: List[ServingRequest] = []
        free_at = [0.0] * cfg.replicas

        def record(now: float, rid: int, event: str, info: str = "") -> None:
            log.append((round(now, 12), rid, event, info))

        def shed(req: ServingRequest, now: float, status: str,
                 reason: str, retry_after: float = 0.0) -> None:
            responses[req.request_id] = ServingResponse(
                request_id=req.request_id, status=status,
                arrival_s=req.arrival_s, deadline_s=req.deadline_s,
                retry_after_s=retry_after, detail={"reason": reason},
            )
            counters["shed" if status == STATUS_SHED else "rejected"] += 1
            record(now, req.request_id, status, reason)

        def arrival(req: ServingRequest, now: float) -> None:
            if self.draining:
                shed(req, now, STATUS_REJECTED, "draining")
                return
            if not cfg.shedding:
                queue.append(req)
                record(now, req.request_id, "enqueue", "naive")
                return
            ok, retry_after = self.bucket.try_acquire(now)
            if not ok:
                shed(req, now, STATUS_REJECTED, "token_bucket", retry_after)
                return
            if len(queue) >= cfg.queue_depth:
                victim = min(queue, key=lambda r: (r.priority, -r.arrival_s))
                if victim.priority < req.priority:
                    queue.remove(victim)
                    counters["evicted"] += 1
                    shed(victim, now, STATUS_SHED, "evicted",
                         retry_after=victim.deadline_s)
                else:
                    shed(req, now, STATUS_REJECTED, "queue_full",
                         retry_after=1.0 / cfg.bucket_rate)
                    return
            queue.append(req)
            counters["admitted"] += 1
            record(now, req.request_id, "admit", f"depth={len(queue)}")

        def pick_queued(now: float) -> ServingRequest:
            if not cfg.shedding:
                best = min(queue, key=lambda r: (r.arrival_s, r.request_id))
            else:
                best = min(
                    queue,
                    key=lambda r: (-r.priority, r.arrival_s, r.request_id),
                )
            queue.remove(best)
            return best

        def choose_tier(req: ServingRequest, now: float,
                        nnz: int) -> Optional[str]:
            if not cfg.shedding:
                return TIER_FULL
            remaining = req.absolute_deadline_s - now
            if remaining <= 0:
                return None
            if (
                len(queue) < cfg.degrade_queue_depth
                and self._nominal_s(TIER_FULL, nnz)
                <= remaining * cfg.full_headroom
            ):
                return TIER_FULL
            if (
                self._nominal_s(TIER_BATCHED, nnz)
                <= remaining * cfg.batched_headroom
            ):
                return TIER_BATCHED
            if self._nominal_s(TIER_ANALYTIC, nnz) <= remaining:
                return TIER_ANALYTIC
            return None

        def finish_response(resp: ServingResponse, req: ServingRequest) -> None:
            responses[req.request_id] = resp
            if resp.status == STATUS_OK:
                counters["served"] += 1
                if resp.degraded:
                    counters["degraded"] += 1
            else:
                counters["failed"] += 1

        def run_analytic(req: ServingRequest, item, now: float,
                         start: float, reason: str) -> None:
            """Answer host-side from the analytic model."""
            counters["analytic_fallbacks"] += 1
            report, _, err = self.ladder.execute(
                TIER_ANALYTIC, item, req.kernel
            )
            finish = start + self._nominal_s(TIER_ANALYTIC, item.nnz)
            record(now, req.request_id, "degrade", f"analytic:{reason}")
            finish_response(ServingResponse(
                request_id=req.request_id, status=STATUS_OK,
                tier=TIER_ANALYTIC, degraded=True,
                error_bound=self.ladder.analytic_error_bound,
                replica=None, arrival_s=req.arrival_s, start_s=start,
                finish_s=finish, deadline_s=req.deadline_s, report=report,
                detail={"reason": reason},
            ), req)
            record(now, req.request_id, "complete", TIER_ANALYTIC)

        def _idle_replicas(now: float, exclude: int = -1) -> List[int]:
            return [
                i for i in range(cfg.replicas)
                if free_at[i] <= now + 1e-15 and i != exclude
            ]

        def dispatch(req: ServingRequest, now: float) -> None:
            item = self.pool[req.workload]
            tier = choose_tier(req, now, item.nnz)
            if tier is None:
                shed(req, now, STATUS_SHED, "deadline_infeasible")
                return
            if tier == TIER_ANALYTIC:
                run_analytic(req, item, now, now, "tier")
                return
            idle = _idle_replicas(now)
            allowed = [
                i for i in idle
                if not cfg.shedding or self.breakers[i].allow(now)
            ]
            if not allowed:
                # Every reachable backend's breaker is open: answer from
                # the host-side analytic model instead of queueing.
                run_analytic(req, item, now, now, "breakers_open")
                return
            replica = min(allowed)
            if cfg.shedding:
                # Half-open breakers admit one probe at a time; the
                # reservation frees on record_success/record_failure.
                self.breakers[replica].start_probe(now)
            nominal = self._nominal_s(tier, item.nnz)
            factor = self._speed_factor(req.request_id, replica, "primary")
            try:
                report, degraded, err = self.ladder.execute(
                    tier, item, req.kernel, self.accelerators[replica]
                )
            except FaultError as exc:
                counters["faults"] += 1
                self.breakers[replica].record_failure(now)
                detect = now + _FAULT_DETECT_FRACTION * nominal * factor
                free_at[replica] = detect
                _push_free_event(detect)
                record(now, req.request_id, "fault",
                       f"replica={replica}:{type(exc).__name__}")
                if cfg.shedding:
                    run_analytic(req, item, now, detect, "fault")
                else:
                    finish_response(
                        ServingResponse(
                            request_id=req.request_id, status=STATUS_FAILED,
                            tier=tier, replica=replica,
                            arrival_s=req.arrival_s, start_s=now,
                            finish_s=detect, deadline_s=req.deadline_s,
                            detail={"reason": "fault"},
                        ),
                        req,
                    )
                return
            if cfg.shedding:
                self.breakers[replica].record_success(now)
            primary_finish = now + nominal * factor + report.time_s
            finish = primary_finish
            hedged = False
            hedge_won = False
            hedge_replica: Optional[int] = None
            if (
                cfg.shedding
                and tier == TIER_FULL
                and nominal * factor > cfg.hedge_trigger * nominal
            ):
                hedge_start = now + cfg.hedge_trigger * nominal
                # Hedges never record an outcome on the backup's breaker,
                # so they must not consume a half-open probe slot: only
                # fully closed backends may host a hedge.
                backups = [
                    i for i in _idle_replicas(hedge_start, exclude=replica)
                    if self.breakers[i].allow(now)
                    and self.breakers[i].state != BREAKER_HALF_OPEN
                ]
                if backups:
                    hedge_replica = min(backups)
                    h_factor = self._speed_factor(
                        req.request_id, hedge_replica, "hedge"
                    )
                    hedge_finish = (
                        hedge_start + nominal * h_factor + report.time_s
                    )
                    hedged = True
                    counters["hedged"] += 1
                    # First-wins: the loser is cancelled at the winner's
                    # completion; both replicas are busy until then.
                    finish = min(primary_finish, hedge_finish)
                    hedge_won = hedge_finish < primary_finish
                    if hedge_won:
                        counters["hedge_wins"] += 1
                    result.hedge_wasted_s += max(
                        0.0, finish - hedge_start
                    ) if not hedge_won else 0.0
                    free_at[hedge_replica] = finish
                    _push_free_event(finish)
                    record(now, req.request_id, "hedge",
                           f"replica={hedge_replica} won={hedge_won}")
            free_at[replica] = finish
            _push_free_event(finish)
            finish_response(
                ServingResponse(
                    request_id=req.request_id, status=STATUS_OK, tier=tier,
                    degraded=degraded, error_bound=err,
                    replica=(hedge_replica if hedge_won else replica),
                    arrival_s=req.arrival_s, start_s=now, finish_s=finish,
                    deadline_s=req.deadline_s, hedged=hedged,
                    hedge_won=hedge_won, report=report,
                ),
                req,
            )
            record(now, req.request_id, "complete",
                   f"{tier}@{hedge_replica if hedge_won else replica}")

        def _push_free_event(when: float) -> None:
            nonlocal seq
            heapq.heappush(events, (when, seq, 1, None))
            seq += 1

        def try_dispatch(now: float) -> None:
            # Analytic-tier dispatches consume no replica, so one idle
            # slot can drain several queued requests in a single event.
            while queue and _idle_replicas(now):
                dispatch(pick_queued(now), now)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == 0:
                arrival(payload, now)
            try_dispatch(now)

        result.responses = [responses[r.request_id] for r in
                            sorted(requests, key=lambda r: r.request_id)]
        result.counters = counters
        for i, brk in enumerate(self.breakers):
            for when, old, new in brk.transitions:
                result.breaker_transitions.append((i, when, old, new))
        result.breaker_transitions.sort(key=lambda t: (t[1], t[0]))
        logger.info(
            "serving trace done: %d requests, %d served, hit rate %.3f",
            len(result.responses), len(result.served),
            result.deadline_hit_rate,
        )
        return result
