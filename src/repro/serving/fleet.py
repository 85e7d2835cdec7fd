"""Fault-tolerant sharded serving fleet with cache-affinity routing.

:class:`TensaurusFleet` fronts N shards — each a
:class:`~repro.serving.server.TensaurusServer` bundle of simulated
replicas, circuit breakers, and a real :class:`~repro.sim.Tensaurus`
per replica — behind a seeded consistent-hash ring
(:class:`~repro.serving.ring.HashRing`) keyed by each workload's
content fingerprint. Repeat traffic for a tensor therefore lands on the
shard whose encoding cache already holds its CISS stream; the virtual
cost model charges a cold-encode penalty on the first touch of a
(workload, shard) pair and nothing afterwards, which is exactly the
latency shape the PR-1 :class:`~repro.sim.batch.EncodingCache`
produces.

Robustness substrate on top of the routing:

- **Tenant isolation** — per-tenant token buckets and weighted-fair
  dispatch via :class:`~repro.serving.tenant.TenantGovernor`; a noisy
  neighbor is clipped at its own rate and its admitted surplus queues
  behind light tenants, never in front of them.
- **Health + autoscaling** — a :class:`~repro.serving.health.
  HealthMonitor` folds breaker states and queue depth into shard
  health; seeded autoscale ticks spin shards up under pressure and
  drain idle ones down (graceful: the drained shard leaves the ring
  first, so nothing is lost).
- **Cross-shard failover** — a killed shard's ring arcs collapse onto
  the survivors (consistent hashing moves only the dead shard's keys),
  and its queued + in-flight requests are re-dealt heaviest-first over
  the survivors with the same least-loaded machinery the multichip farm
  uses for chip failures (:func:`repro.sim.multichip.
  least_loaded_redeal`). Re-dealt work is bounded by
  ``failover_redeal_cap`` per failure.
- **At-most-once execution** — every request carries an execution
  epoch; a kill voids the victim's in-flight work by bumping epochs, so
  the voided completions are discarded as stale when they pop and the
  re-dealt copy is the only one that can commit. Every admitted request
  is answered exactly once: served, or — when a higher-priority arrival
  evicts it from a full queue — handed back with an explicit ``SHED``
  response and counted in :attr:`FleetResult.admitted_evictions`
  (never silently dropped, never served twice).

Everything runs on one deterministic virtual-time event loop, the only
one in :mod:`repro.serving`: a single-node server is a one-shard fleet
without autoscaling. The decision log replays bit-identically per seed,
kills included. Each decision is reported once, through the loop's
``record``, which hands the row and the objects it is about to the
observers installed for the replay: the request tracer folds them into
span trees and the chaos probe keeps them (:mod:`repro.obs.probe`).

``FleetConfig.shedding=False`` turns the loop into the naive baseline
the serving benchmark compares against: arrivals skip the tenant quota
and the queue bound, each shard dispatches its queue in arrival order,
and every launch takes the full tier.

The tier rule's headroom, the hedge trigger, the ring's arcs per shard,
the warm-cache size, the cold-encode cost and the failover and spin-up
delays are this module's constants; the per-tier service costs and the
speed jitter are :mod:`repro.serving.server`'s.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro import obs
from repro.serving.breaker import BREAKER_CLOSED
from repro.serving.health import (
    HEALTH_CRITICAL,
    HEALTH_HEALTHY,
    HealthMonitor,
)
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
from repro.serving.ring import HashRing
from repro.serving.server import TensaurusServer, nominal_s
from repro.serving.tenant import TenantGovernor, TenantQuota
from repro.serving.trace import WorkloadPool
from repro.sim.config import TensaurusConfig
from repro.sim.faults import SHARD_KILL, FaultEvent, FaultPlan
from repro.sim.multichip import least_loaded_redeal
from repro.util.errors import ConfigError, FaultError
from repro.util.rng import DEFAULT_SEED, derive_seed, uniform

logger = obs.get_logger(__name__)

ROUTING_AFFINITY = "affinity"
ROUTING_RANDOM = "random"

#: Fraction of the nominal service time after which a faulted launch is
#: detected (aborts surface early, not at the would-be completion).
_FAULT_DETECT_FRACTION = 0.25
#: Fractions of the remaining deadline budget the nominal service time
#: must fit inside to stay at the full / batched tier. Misses degrade
#: one tier further; admitted work is never shed, so the floor is the
#: analytic tier (a request already past its deadline is answered there
#: and counted ``late``).
_FULL_HEADROOM = 0.8
_BATCHED_HEADROOM = 0.9
#: Queue backlog at or above which dispatch skips the full tier outright.
_DEGRADE_QUEUE_DEPTH = 6
#: With hedging on, a full-tier primary whose jittered service time
#: exceeds this multiple of the nominal estimate gets a twin launch.
_HEDGE_TRIGGER = 1.6
#: Ring arcs per shard.
_VNODES = 48
#: LRU capacity of each shard's (virtual) encoding-cache mirror.
_WARM_CACHE_ENTRIES = 6
#: Extra virtual seconds a cold (workload, shard) first touch pays.
_COLD_ENCODE_S = 1.0e-2
#: Virtual seconds between a shard death and its work re-arriving.
_FAILOVER_DETECT_S = 0.005
#: Virtual seconds a freshly spun shard needs before serving.
_SPINUP_DELAY_S = 0.02

#: Event kinds, in tie-break order at equal virtual time.
_EV_COMPLETION = 0
_EV_ARRIVAL = 1
_EV_REDEAL = 2
_EV_KILL = 3
_EV_TICK = 4
_EV_KICK = 5


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for :class:`TensaurusFleet`.

    Each shard gets ``replicas_per_shard`` replicas and a seed derived
    from ``seed``. Admission is per tenant (``tenant_default``,
    ``tenant_quotas``). The service-time model, breaker, tier, hedge and
    cache settings are module constants, here and in
    :mod:`repro.serving.server`. :meth:`single_node` gives the
    single-node server's settings.
    """

    seed: int = DEFAULT_SEED
    shards: int = 3
    replicas_per_shard: int = 2
    routing: str = ROUTING_AFFINITY
    queue_depth: int = 24
    #: shards the autoscaler may not go below / above.
    min_shards: int = 2
    max_shards: int = 6
    autoscale: bool = True
    autoscale_interval_s: float = 0.05
    #: mean queued requests per routable shard that triggers scale-up.
    scale_up_queue_depth: float = 6.0
    #: consecutive idle ticks before a shard is drained down.
    scale_down_idle_ticks: int = 4
    #: most requests a single failover may re-deal; overflow fails fast.
    failover_redeal_cap: int = 4096
    #: ticks continue this long past the last arrival (lets the fleet
    #: drain, scale down, and flush every completion).
    horizon_pad_s: float = 0.3
    #: fleet-level hedged launches: when a full-tier primary draws a slow
    #: speed factor, a twin launch races it on another replica and the
    #: first completion wins (the loser resolves as ``hedge_cancelled``,
    #: never as a duplicate). Off by default — hedging adds events to the
    #: loop, so enabling it changes decision logs.
    hedging: bool = False
    tenant_default: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: Tuple[Tuple[str, TenantQuota], ...] = ()
    #: ``False`` is the naive baseline the serving benchmark compares
    #: against: arrivals skip the tenant quota and the queue bound, each
    #: shard dispatches in arrival order, and every launch takes the full
    #: tier. Breakers, hedging and failover still apply.
    shedding: bool = True

    @classmethod
    def single_node(cls, **overrides: Any) -> "FleetConfig":
        """A single-node server: one shard of ``replicas_per_shard``
        replicas, no autoscaling, hedging on, an 8-deep queue and a
        400 req/s, burst-16 admission bucket per tenant. ``overrides``
        set any field."""
        settings: Dict[str, Any] = dict(
            shards=1, autoscale=False, hedging=True, queue_depth=8,
            tenant_default=TenantQuota(rate=400.0, burst=16),
        )
        return cls(**{**settings, **overrides})

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ConfigError("shards must be positive")
        if self.replicas_per_shard <= 0:
            raise ConfigError("replicas_per_shard must be positive")
        if self.routing not in (ROUTING_AFFINITY, ROUTING_RANDOM):
            raise ConfigError(
                f"routing must be 'affinity' or 'random', got {self.routing!r}"
            )
        if self.queue_depth <= 0:
            raise ConfigError("queue_depth must be positive")
        if not 0 < self.min_shards <= self.max_shards:
            raise ConfigError("need 0 < min_shards <= max_shards")
        if self.shards > self.max_shards:
            raise ConfigError("shards must not exceed max_shards")
        if self.autoscale_interval_s <= 0:
            raise ConfigError("autoscale_interval_s must be positive")
        if self.scale_down_idle_ticks <= 0:
            raise ConfigError("scale_down_idle_ticks must be positive")
        if self.failover_redeal_cap <= 0:
            raise ConfigError("failover_redeal_cap must be positive")
        for name in ("horizon_pad_s", "scale_up_queue_depth"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


class ShardQueue:
    """One shard's queued ``(request, epoch)`` entries, indexed by heaps.

    Answers the fleet's two per-event questions without scanning the
    queue, with exactly the answers a scan of the insertion-ordered list
    would give:

    - :meth:`pop_fairest` removes the entry with the smallest
      ``(fairness_key(tenant), -priority, arrival_s, request_id)``. Each
      tenant keeps a heap of ``(-priority, arrival_s, request_id)``; the
      pick compares the tenants' tops under their current fairness keys,
      which may change between pops. A request id is queued at most once
      per shard, so the key never ties.
    - :meth:`victim` names the entry with the smallest
      ``(priority, -arrival_s)``, the eviction candidate. Ties go to the
      earliest inserted entry still queued, through an insertion sequence
      number in the heap key.

    Removal is lazy: the other heap keeps a stale entry, skipped when it
    surfaces. The heaps are rebuilt from the live entries once stale
    entries exceed ``2 * len(self) + 32``, so their size stays linear in
    the queue length however many requests pass through.
    """

    __slots__ = ("_entries", "_by_tenant", "_evict", "_seq", "_stale")

    def __init__(self) -> None:
        #: request id -> (request, epoch, insertion seq), insertion order.
        self._entries: Dict[int, Tuple[ServingRequest, int, int]] = {}
        #: tenant -> heap of (-priority, arrival_s, request_id, seq).
        self._by_tenant: Dict[str, List[Tuple[int, float, int, int]]] = {}
        #: heap of (priority, -arrival_s, seq, request_id).
        self._evict: List[Tuple[int, float, int, int]] = []
        self._seq = 0
        #: heap entries whose request has left the queue.
        self._stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[ServingRequest, int]]:
        for req, ep, _ in self._entries.values():
            yield req, ep

    def append(self, req: ServingRequest, ep: int) -> None:
        seq = self._seq
        self._seq += 1
        rid = req.request_id
        self._entries[rid] = (req, ep, seq)
        heap = self._by_tenant.get(req.tenant)
        if heap is None:
            heap = self._by_tenant[req.tenant] = []
        heapq.heappush(heap, (-req.priority, req.arrival_s, rid, seq))
        heapq.heappush(
            self._evict, (req.priority, -req.arrival_s, seq, rid)
        )

    def _live(self, rid: int, seq: int) -> bool:
        entry = self._entries.get(rid)
        return entry is not None and entry[2] == seq

    def pop_fairest(
        self, fairness_key: Callable[[str], float]
    ) -> Tuple[ServingRequest, int]:
        """Remove and return the next entry to dispatch."""
        best: Optional[Tuple] = None
        best_heap: List[Tuple[int, float, int, int]] = []
        for tenant, heap in self._by_tenant.items():
            while heap and not self._live(heap[0][2], heap[0][3]):
                heapq.heappop(heap)
                self._stale -= 1
            if heap:
                key = (fairness_key(tenant), heap[0])
                if best is None or key < best:
                    best, best_heap = key, heap
        if best is None:
            raise IndexError("pop from an empty shard queue")
        rid = heapq.heappop(best_heap)[2]
        req, ep, _ = self._entries.pop(rid)
        self._stale += 1
        self._maybe_rebuild()
        return req, ep

    def pop_oldest(self) -> Tuple[ServingRequest, int]:
        """Remove and return the entry inserted first (the naive
        baseline's arrival-order dispatch)."""
        req, ep, _ = next(iter(self._entries.values()))
        self.remove(req)
        return req, ep

    def victim(self) -> ServingRequest:
        """The entry a higher-priority arrival would evict."""
        heap = self._evict
        while not self._live(heap[0][3], heap[0][2]):
            heapq.heappop(heap)
            self._stale -= 1
        return self._entries[heap[0][3]][0]

    def remove(self, req: ServingRequest) -> None:
        del self._entries[req.request_id]
        self._stale += 2
        self._maybe_rebuild()

    def clear(self) -> None:
        self._entries.clear()
        self._by_tenant.clear()
        self._evict.clear()
        self._stale = 0

    def _maybe_rebuild(self) -> None:
        if self._stale <= 2 * len(self._entries) + 32:
            return
        self._by_tenant = {}
        self._evict = []
        for rid, (req, _, seq) in self._entries.items():
            self._by_tenant.setdefault(req.tenant, []).append(
                (-req.priority, req.arrival_s, rid, seq)
            )
            self._evict.append((req.priority, -req.arrival_s, seq, rid))
        for heap in self._by_tenant.values():
            heapq.heapify(heap)
        heapq.heapify(self._evict)
        self._stale = 0


class FleetShard:
    """One shard: a replica bundle plus fleet-side queue and cache state."""

    def __init__(
        self,
        sid: int,
        fleet_config: FleetConfig,
        sim_config: TensaurusConfig,
        fault_plan: Optional[FaultPlan],
        spawned_at: float = 0.0,
        ready_at: float = 0.0,
    ) -> None:
        self.sid = sid
        # Accelerator-level faults (aborts, bit-flips, ...) are forwarded;
        # fleet-level shard kills are consumed by the fleet event loop.
        forwarded = (
            fault_plan if fault_plan is not None and fault_plan.enabled
            else None
        )
        self.server = TensaurusServer(
            fleet_config.replicas_per_shard,
            derive_seed(fleet_config.seed, "shard", sid), sim_config,
            fault_plan=forwarded,
        )
        self.spawned_at = spawned_at
        self.ready_at = ready_at
        self.free_at = [ready_at] * fleet_config.replicas_per_shard
        self.queue = ShardQueue()
        #: LRU mirror of the shard's encoding cache: workload fingerprints
        #: whose streams are resident (cold first touch pays
        #: ``_COLD_ENCODE_S``).
        self.warm: "OrderedDict[str, bool]" = OrderedDict()
        self.alive = True
        self.draining = False
        self.killed_at: Optional[float] = None
        self.idle_ticks = 0
        self.stats = {
            "routed": 0, "served": 0, "cache_hits": 0, "cache_misses": 0,
        }

    @property
    def routable(self) -> bool:
        return self.alive and not self.draining

    def idle_replicas(self, now: float) -> List[int]:
        return [
            i for i, t in enumerate(self.free_at) if t <= now + 1e-15
        ]

    def warm_touch(self, key: str) -> bool:
        """LRU lookup-and-insert; True on a warm hit."""
        hit = key in self.warm
        if hit:
            self.warm.move_to_end(key)
            self.stats["cache_hits"] += 1
        else:
            self.warm[key] = True
            self.stats["cache_misses"] += 1
            while len(self.warm) > _WARM_CACHE_ENTRIES:
                self.warm.popitem(last=False)
        return hit


@dataclass
class FleetResult:
    """Everything one fleet trace replay produced."""

    responses: List[ServingResponse] = field(default_factory=list)
    decision_log: List[Tuple] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    analytic_error_bound: float = 0.0
    hedge_wasted_s: float = 0.0
    #: ``(shard, time_s, from_state, to_state)`` of every replica breaker.
    breaker_transitions: List[Tuple[int, float, str, str]] = field(
        default_factory=list
    )
    shard_stats: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    tenant_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fault_events: List[FaultEvent] = field(default_factory=list)
    autoscale_events: List[Tuple] = field(default_factory=list)
    health_transitions: List[Tuple] = field(default_factory=list)
    lost_request_ids: List[int] = field(default_factory=list)

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

    @property
    def cache_hit_rate(self) -> float:
        hits = sum(s["cache_hits"] for s in self.shard_stats.values())
        total = hits + sum(
            s["cache_misses"] for s in self.shard_stats.values()
        )
        return hits / total if total else 0.0

    @property
    def admitted_evictions(self) -> int:
        """Admitted requests later evicted by a higher-priority arrival.

        Each eviction hands the victim back with an explicit ``SHED``
        response and a retry hint — deliberate load shedding, not loss —
        so they are surfaced here rather than in
        :attr:`lost_request_ids`.
        """
        return self.counters.get("evicted", 0)

    @property
    def exactly_once(self) -> bool:
        """Every admitted-and-retained request completed exactly once.

        True means nothing was silently lost, duplicated, or
        double-committed. Admitted work shed by a priority eviction got
        an explicit ``SHED`` response and is counted separately in
        :attr:`admitted_evictions`; a run where *every* admitted request
        was actually served is ``exactly_once and admitted_evictions ==
        0`` (the chaos gate in ``bench_fleet.py`` asserts exactly that).
        """
        return (
            not self.lost_request_ids
            and self.counters.get("duplicate_completions", 0) == 0
        )

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
            "cache_hit_rate": self.cache_hit_rate,
            "exactly_once": self.exactly_once,
            "admitted_evictions": self.admitted_evictions,
            "lost_requests": len(self.lost_request_ids),
            "shards_final": len(self.shard_stats),
            "fault_events": len(self.fault_events),
            "autoscale_events": len(self.autoscale_events),
            "tenants": len(self.tenant_stats),
        }


class TensaurusFleet:
    """Deterministic sharded serving fleet over simulated accelerators."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        sim_config: Optional[TensaurusConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        pool: Optional[WorkloadPool] = None,
        calibrate: bool = True,
        ladder: Optional[DegradationLadder] = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.sim_config = sim_config or TensaurusConfig()
        self.fault_plan = fault_plan
        self.pool = (
            pool if pool is not None else WorkloadPool(self.config.seed)
        )
        if ladder is not None:
            # Pre-calibrated ladder injection (the chaos search calibrates
            # once and shares it across hundreds of fleets).
            self.ladder = ladder
        else:
            error_bound = 0.0
            if calibrate:
                error_bound = calibrate_analytic_error(
                    self.sim_config, self.pool, seed=self.config.seed
                )
            self.ladder = DegradationLadder(self.sim_config, error_bound)
        self.ring = HashRing(
            vnodes=_VNODES,
            seed=derive_seed(self.config.seed, "ring"),
        )
        self.governor = TenantGovernor(
            self.config.tenant_default, dict(self.config.tenant_quotas)
        )
        self.monitor = HealthMonitor(self.config.queue_depth)
        self.shards: Dict[int, FleetShard] = {}
        self._routable: List[FleetShard] = []
        self._next_sid = 0
        for _ in range(self.config.shards):
            self._spawn_shard(0.0, 0.0)

    # ------------------------------------------------------------------
    def _spawn_shard(
        self, now: float, ready_at: float
    ) -> FleetShard:
        sid = self._next_sid
        self._next_sid += 1
        shard = FleetShard(
            sid, self.config, self.sim_config, self.fault_plan,
            spawned_at=now, ready_at=ready_at,
        )
        self.shards[sid] = shard
        self.ring.add(sid)
        self._refresh_routable()
        return shard

    def _refresh_routable(self) -> None:
        """Rebuild the routable list; call after every spawn, kill and
        drain, the only transitions that change it."""
        self._routable = [
            shard for _, shard in sorted(self.shards.items())
            if shard.routable
        ]

    def routable_shards(self) -> List[FleetShard]:
        """Alive, non-draining shards in shard-id order.

        Random routing indexes this list by position, so the order is
        part of the contract. The list is shared: callers must not
        mutate it.
        """
        return self._routable

    def _route(self, req: ServingRequest) -> int:
        """Pick the target shard for one admitted request."""
        routable = self.routable_shards()
        if not routable:
            raise FaultError(
                "every fleet shard is dead; request "
                f"{req.request_id} has nowhere to go"
            )
        if self.config.routing == ROUTING_AFFINITY:
            return self.ring.route(self.pool[req.workload].fingerprint)
        u = uniform(self.config.seed, "route", req.request_id)
        return routable[int(u * len(routable))].sid

    # ------------------------------------------------------------------
    def run_trace(
        self,
        requests: Sequence[ServingRequest],
        kills: Optional[Sequence[Tuple[int, float]]] = None,
    ) -> FleetResult:
        """Replay ``requests`` through the fleet's virtual-time loop.

        ``kills`` adds explicit ``(shard, time_s)`` kills on top of
        whatever the armed :class:`FaultPlan` draws via
        :meth:`~repro.sim.faults.FaultPlan.shard_kills`.
        """
        cfg = self.config
        met = obs.metrics()
        admitted_c = met.counter("fleet.admitted")
        rejected_c = met.counter("fleet.rejected")
        routed_c = met.counter("fleet.routed", labels=("shard",))
        cache_c = met.counter("fleet.cache", labels=("outcome",))
        redeal_c = met.counter("fleet.redeals")
        kill_c = met.counter("fleet.shard_kills")
        latency_h = met.histogram("fleet.latency_seconds")
        alive_g = met.gauge("fleet.alive_shards")
        health_g = met.gauge("fleet.shard_health", labels=("shard",))

        result = FleetResult(
            analytic_error_bound=self.ladder.analytic_error_bound
        )
        counters: Dict[str, int] = {
            "admitted": 0, "rejected": 0, "shed": 0, "evicted": 0,
            "served": 0, "degraded": 0, "late": 0, "faults": 0,
            "failed": 0, "analytic_fallbacks": 0, "cache_hits": 0,
            "cache_misses": 0, "redeals": 0, "shard_kills": 0,
            "voided_inflight": 0, "stale_completions": 0,
            "duplicate_completions": 0, "failover_overflow": 0,
            "scale_ups": 0, "scale_downs": 0,
            "hedged": 0, "hedge_wins": 0, "hedge_cancelled": 0,
        }
        responses: Dict[int, ServingResponse] = {}
        admitted_ids: List[int] = []
        epoch: Dict[int, int] = {}
        inflight: Dict[int, Tuple[ServingRequest, int, int]] = {}
        log = result.decision_log
        # The observers installed for this replay, read once. Each hands
        # out a sink that only reads the decisions ``record`` passes it
        # and dies with this call; a disabled one gets nothing.
        rt = obs.request_tracer()
        sinks = [o.sink() for o in (rt, obs.probe()) if o.enabled]

        events: List[Tuple[float, int, int, Any]] = []
        seq = 0

        def push(when: float, kind: int, payload: Any) -> None:
            nonlocal seq
            heapq.heappush(events, (when, kind, seq, payload))
            seq += 1

        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        for req in ordered:
            push(req.arrival_s, _EV_ARRIVAL, req)
        last_arrival = ordered[-1].arrival_s if ordered else 0.0
        horizon_end = last_arrival + cfg.horizon_pad_s

        all_kills: List[Tuple[int, float]] = list(kills or [])
        if self.fault_plan is not None and self.fault_plan.shard_kills_armed:
            all_kills.extend(
                self.fault_plan.shard_kills(len(self.shards), last_arrival)
            )
        for sid, when in sorted(all_kills, key=lambda kv: (kv[1], kv[0])):
            push(when, _EV_KILL, int(sid))
        if cfg.autoscale:
            push(cfg.autoscale_interval_s, _EV_TICK, None)

        # After a dispatch pass every routable shard has an empty queue,
        # is still spinning up, or has no idle replica. Between passes a
        # shard can become dispatchable only when its queue grows or a
        # replica is released early (both add it to ``touched``), or when
        # time reaches max(ready_at, min(free_at)) (its entry in
        # ``wakes``). A pass visits just those shards.
        touched: Set[int] = set(self.shards)
        wakes: List[Tuple[float, int]] = []
        wake_at: Dict[int, float] = {}
        fairness_key = self.governor.fairness_key
        # False for the naive baseline: no quota or queue bound, arrival
        # order, full tier only.
        shedding = cfg.shedding

        def record(now: float, rid: int, kind: str, info: str = "",
                   *facts: Any) -> None:
            """Append one decision's log row and hand it, with the facts
            ``repro.obs.probe.DECISION_FACTS`` names, to the sinks."""
            log.append((round(now, 12), rid, kind, info))
            if sinks:
                for sink in sinks:
                    sink(now, rid, kind, info, facts)

        def reject(req: ServingRequest, now: float, status: str,
                   reason: str, retry_after: float = 0.0) -> None:
            responses[req.request_id] = ServingResponse(
                request_id=req.request_id, status=status,
                arrival_s=req.arrival_s, deadline_s=req.deadline_s,
                retry_after_s=retry_after, detail={"reason": reason},
            )
            counters["shed" if status == STATUS_SHED else "rejected"] += 1
            rejected_c.inc()
            record(now, req.request_id, status, reason, req)

        # -------------------------------------------------- admission
        def arrival(req: ServingRequest, now: float) -> None:
            if shedding:
                ok, retry_after = self.governor.admit(req.tenant, now)
                if not ok:
                    reject(req, now, STATUS_REJECTED, "tenant_quota",
                           retry_after)
                    return
            shard = self.shards[self._route(req)]
            if shedding and len(shard.queue) >= cfg.queue_depth:
                victim = shard.queue.victim()
                if victim.priority < req.priority:
                    shard.queue.remove(victim)
                    counters["evicted"] += 1
                    reject(victim, now, STATUS_SHED, "evicted",
                           retry_after=victim.deadline_s)
                else:
                    reject(req, now, STATUS_REJECTED, "queue_full",
                           retry_after=1.0 / self.governor.quota(
                               req.tenant).rate)
                    return
            epoch[req.request_id] = 0
            shard.queue.append(req, 0)
            touched.add(shard.sid)
            shard.stats["routed"] += 1
            admitted_ids.append(req.request_id)
            counters["admitted"] += 1
            admitted_c.inc()
            routed_c.labels(shard=shard.sid).inc()
            depth = len(shard.queue)
            record(now, req.request_id, "admit",
                   f"tenant={req.tenant} shard={shard.sid} depth={depth}",
                   req, shard.sid, depth, cfg.routing)

        # -------------------------------------------------- dispatch
        def choose_tier(shard: FleetShard, req: ServingRequest,
                        now: float, nnz: int) -> str:
            """Admitted work is never shed: the floor is analytic."""
            if not shedding:
                return TIER_FULL
            remaining = req.absolute_deadline_s - now
            if remaining <= 0:
                counters["late"] += 1
                return TIER_ANALYTIC
            if (
                len(shard.queue) < _DEGRADE_QUEUE_DEPTH
                and nominal_s(TIER_FULL, nnz) <= remaining * _FULL_HEADROOM
            ):
                return TIER_FULL
            if nominal_s(TIER_BATCHED, nnz) <= remaining * _BATCHED_HEADROOM:
                return TIER_BATCHED
            return TIER_ANALYTIC

        def analytic_response(
            req: ServingRequest, item, shard: FleetShard, now: float,
            start: float, ep: int, reason: str,
        ) -> ServingResponse:
            """Answer host-side from the analytic model, starting at
            ``start``, and schedule the answer's completion."""
            counters["analytic_fallbacks"] += 1
            report, _, err = self.ladder.execute(
                TIER_ANALYTIC, item, req.kernel
            )
            service = nominal_s(TIER_ANALYTIC, item.nnz)
            resp = ServingResponse(
                request_id=req.request_id, status=STATUS_OK,
                tier=TIER_ANALYTIC, degraded=True, error_bound=err,
                shard=shard.sid, epoch=ep, replica=None,
                arrival_s=req.arrival_s, start_s=start,
                finish_s=start + service, deadline_s=req.deadline_s,
                report=report, detail={"reason": reason},
            )
            record(now, req.request_id, "degrade", f"analytic:{reason}",
                   resp)
            inflight[req.request_id] = (req, shard.sid, ep)
            # replica=None in the payload: the answer is host-side
            # analytic. After a fault, record_failure already settled the
            # breaker (and released any half-open probe slot) — crediting
            # the faulted replica with a success here would reset
            # consecutive_failures and keep the breaker from ever opening.
            push(resp.finish_s, _EV_COMPLETION,
                 (req.request_id, ep, shard.sid, None, resp, service))
            return resp

        def dispatch(shard: FleetShard, req: ServingRequest, ep: int,
                     now: float) -> None:
            item = self.pool[req.workload]
            tier = choose_tier(shard, req, now, item.nnz)
            rid = req.request_id
            if tier == TIER_ANALYTIC:
                resp = analytic_response(req, item, shard, now, now, ep,
                                         "tier")
                record(now, rid, "dispatch", f"{TIER_ANALYTIC}@{shard.sid}",
                       resp, None)
                return
            idle = shard.idle_replicas(now)
            breakers = shard.server.breakers
            allowed = [i for i in idle if breakers[i].allow(now)]
            if not allowed:
                # Every reachable replica's breaker refused: host-side
                # analytic answer, no backend consumed.
                analytic_response(req, item, shard, now, now, ep,
                                  "breakers_open")
                return
            replica = min(allowed)
            # Breaker state the instant the launch lands (allow() above
            # already resolved any open->half_open cooldown transition,
            # so a probe stream showing "open" here is a real violation).
            launch_state = breakers[replica].state
            breakers[replica].start_probe(now)
            nominal = nominal_s(tier, item.nnz)
            factor = shard.server._speed_factor(rid, replica, "primary")
            hit = shard.warm_touch(item.fingerprint)
            cold_extra = 0.0 if hit else _COLD_ENCODE_S
            counters["cache_hits" if hit else "cache_misses"] += 1
            cache_c.labels(outcome="hit" if hit else "miss").inc()
            try:
                # bind(shard=...) stamps the owning shard onto every
                # sim-track event the launch emits (micro instants
                # included), so per-shard flamegraphs separate; activate
                # threads the request's trace id into log records and
                # driver spans emitted underneath.
                with obs.tracer().bind(shard=shard.sid), rt.activate(rid):
                    report, degraded, err = self.ladder.execute(
                        tier, item, req.kernel,
                        shard.server.accelerators[replica],
                    )
            except FaultError as exc:
                counters["faults"] += 1
                breakers[replica].record_failure(now)
                detect = now + _FAULT_DETECT_FRACTION * nominal * factor
                shard.free_at[replica] = detect
                push(detect, _EV_KICK, None)
                error = type(exc).__name__
                record(now, rid, "fault",
                       f"shard={shard.sid}:{replica}:{error}",
                       shard.sid, replica, launch_state, error)
                analytic_response(req, item, shard, now, detect, ep, "fault")
                return
            service = nominal * factor + cold_extra + report.time_s
            finish = now + service
            shard.free_at[replica] = finish
            inflight[rid] = (req, shard.sid, ep)
            resp = ServingResponse(
                request_id=rid, status=STATUS_OK, tier=tier,
                degraded=degraded, error_bound=err, shard=shard.sid,
                epoch=ep, replica=replica, arrival_s=req.arrival_s,
                start_s=now, finish_s=finish, deadline_s=req.deadline_s,
                report=report,
                detail={"cache": "hit" if hit else "cold"},
            )
            twin: Optional[int] = None
            if (
                cfg.hedging
                and tier == TIER_FULL
                and nominal * factor > _HEDGE_TRIGGER * nominal
            ):
                # Slow primary draw: race a twin launch on another
                # replica. Both completions are real events — whichever
                # pops first commits, the loser resolves as
                # ``hedge_cancelled`` (committing the pair twice would be
                # a duplicate-completion bug, which is exactly what the
                # chaos exactly-once invariant watches for).
                # Only closed breakers may host a twin (a hedge records no
                # outcome, so it must not take a half-open probe slot).
                # A pure read: allow(hedge_start) would move an open
                # breaker to half-open at a future time, letting an
                # earlier event probe it before its cooldown is over.
                hedge_start = now + _HEDGE_TRIGGER * nominal
                backups = [
                    i for i in shard.idle_replicas(hedge_start)
                    if i != replica
                    and shard.server.breakers[i].state == BREAKER_CLOSED
                ]
                if backups:
                    twin = min(backups)
                    h_factor = shard.server._speed_factor(rid, twin, "hedge")
                    hedge_finish = (
                        hedge_start + nominal * h_factor + report.time_s
                    )
                    shard.free_at[twin] = hedge_finish
                    counters["hedged"] += 1
                    hedge_resp = ServingResponse(
                        request_id=rid, status=STATUS_OK, tier=tier,
                        degraded=degraded, error_bound=err,
                        shard=shard.sid, epoch=ep, replica=twin,
                        arrival_s=req.arrival_s, start_s=now,
                        finish_s=hedge_finish, deadline_s=req.deadline_s,
                        hedged=True, hedge_won=True, report=report,
                        detail={"cache": "hit" if hit else "cold",
                                "hedge": "twin"},
                    )
                    push(hedge_finish, _EV_COMPLETION,
                         (rid, ep, shard.sid, twin, hedge_resp,
                          hedge_finish - now, "hedge", replica,
                          hedge_start))
                    record(now, rid, "hedge",
                           f"shard={shard.sid} twin={twin}",
                           hedge_resp, breakers[twin].state)
            if twin is not None:
                resp = replace(resp, hedged=True)
                push(finish, _EV_COMPLETION,
                     (rid, ep, shard.sid, replica, resp, service,
                      "primary", twin, hedge_start))
            else:
                push(finish, _EV_COMPLETION,
                     (rid, ep, shard.sid, replica, resp, service))
            record(now, rid, "dispatch",
                   f"{tier}@{shard.sid}:{replica} "
                   f"cache={'hit' if hit else 'cold'}",
                   resp, launch_state)

        def dispatch_all(now: float) -> None:
            """Dispatch on every touched or due shard, in shard-id order
            as a sweep of all routable shards would: the events each
            dispatch pushes take their heap tie-break sequence in that
            order. The pick goes by weighted fairness, then priority,
            then FIFO; the naive baseline takes the oldest entry."""
            while wakes and wakes[0][0] <= now + 1e-15:
                when, sid = heapq.heappop(wakes)
                if wake_at.get(sid) == when:
                    del wake_at[sid]
                    touched.add(sid)
            if not touched:
                return
            visit = sorted(touched)
            touched.clear()
            for sid in visit:
                shard = self.shards[sid]
                if not shard.routable:
                    continue
                if now >= shard.ready_at:
                    while shard.queue and min(shard.free_at) <= now + 1e-15:
                        req, ep = (
                            shard.queue.pop_fairest(fairness_key)
                            if shedding else shard.queue.pop_oldest()
                        )
                        dispatch(shard, req, ep, now)
                if shard.queue:
                    when = max(shard.ready_at, min(shard.free_at))
                    if wake_at.get(sid) != when:
                        wake_at[sid] = when
                        heapq.heappush(wakes, (when, sid))

        # -------------------------------------------------- completion
        def completion(now: float, payload: Tuple) -> None:
            rid, ep, sid, replica, resp, service = payload[:6]
            # Hedged pairs push two completion events; the extra fields
            # name this event's role and its twin's replica.
            role = payload[6] if len(payload) > 6 else None
            twin = payload[7] if len(payload) > 6 else None
            hedge_start = payload[8] if len(payload) > 6 else 0.0
            if epoch.get(rid, 0) != ep:
                counters["stale_completions"] += 1
                record(now, rid, "stale", f"epoch={ep} shard={sid}", resp)
                return
            prior = responses.get(rid)
            if prior is not None and prior.status == STATUS_OK:
                if role is not None and prior.hedged and prior.epoch == ep:
                    # The losing half of this request's own hedged pair:
                    # its twin already committed, so this event resolves
                    # as a cancellation, never as a duplicate commit.
                    counters["hedge_cancelled"] += 1
                    record(now, rid, "hedge_cancel", f"{role}@{sid}",
                           resp, role)
                    return
                counters["duplicate_completions"] += 1
                record(now, rid, "duplicate", f"shard={sid}", resp)
                return
            if role == "hedge":
                counters["hedge_wins"] += 1
            responses[rid] = resp
            inflight.pop(rid, None)
            shard = self.shards.get(sid)
            if shard is not None:
                shard.stats["served"] += 1
                if role is not None and twin is not None:
                    # The pair is settled: release the losing replica now
                    # instead of letting it run out its doomed launch
                    # (this is what lets a drain tick race the loser's
                    # still-queued completion event).
                    loser = twin if role == "primary" else replica
                    primary = replica if role == "primary" else twin
                    if role == "primary":
                        result.hedge_wasted_s += max(0.0, now - hedge_start)
                    if loser < len(shard.free_at):
                        shard.free_at[loser] = min(
                            shard.free_at[loser], now
                        )
                        touched.add(sid)
                    # Breaker outcomes always settle on the primary
                    # replica (the only launch that took a probe slot) —
                    # hedge twins never record outcomes on their breaker.
                    if shard.alive:
                        shard.server.breakers[primary].record_success(now)
                elif replica is not None and shard.alive:
                    shard.server.breakers[replica].record_success(now)
            counters["served"] += 1
            if resp.degraded:
                counters["degraded"] += 1
            if resp.latency_s is not None:
                latency_h.observe(resp.latency_s)
            self.governor.charge(tenant_of.get(rid, "default"), service)
            record(now, rid, "complete",
                   f"{resp.tier}@{sid} epoch={ep}", resp)

        tenant_of: Dict[int, str] = {
            r.request_id: r.tenant for r in requests
        }

        # -------------------------------------------------- failover
        def redeal(orphans: List[Tuple[ServingRequest, int]],
                   now: float) -> None:
            """Deal orphaned requests over routable survivors with the
            multichip least-loaded machinery, bounded by the cap."""
            if not orphans:
                return
            survivors = [s.sid for s in self.routable_shards()]
            if not survivors:
                raise FaultError(
                    "every fleet shard is dead; nothing can absorb the "
                    f"{len(orphans)} orphaned requests"
                )
            if len(orphans) > cfg.failover_redeal_cap:
                keep_order = sorted(
                    orphans,
                    key=lambda t: (
                        -t[0].priority, t[0].arrival_s, t[0].request_id
                    ),
                )
                overflow = keep_order[cfg.failover_redeal_cap:]
                orphans = keep_order[:cfg.failover_redeal_cap]
                for req, _ in overflow:
                    counters["failover_overflow"] += 1
                    responses[req.request_id] = ServingResponse(
                        request_id=req.request_id, status=STATUS_FAILED,
                        arrival_s=req.arrival_s,
                        deadline_s=req.deadline_s,
                        detail={"reason": "redeal_overflow"},
                    )
                    record(now, req.request_id, STATUS_FAILED,
                           "redeal_overflow", req)
            by_rid = {req.request_id: (req, ep) for req, ep in orphans}
            weights = {
                rid: self.pool[req.workload].nnz
                for rid, (req, _) in by_rid.items()
            }
            ordered_rids = sorted(
                by_rid, key=lambda rid: (-weights[rid], rid)
            )
            loads = {
                s.sid: sum(
                    self.pool[q.workload].nnz for q, _ in s.queue
                ) + sum(
                    self.pool[r.workload].nnz
                    for r, sid2, _ in inflight.values()
                    if sid2 == s.sid
                )
                for s in self.routable_shards()
            }
            deal = least_loaded_redeal(
                ordered_rids, weights, survivors, loads
            )
            deliveries = []
            for sid in survivors:
                for rid in deal.get(sid, []):
                    req, ep = by_rid[rid]
                    deliveries.append((sid, req, ep))
                    counters["redeals"] += 1
                    redeal_c.inc()
                    record(now, rid, "redeal", f"shard={sid}", sid, ep)
            if deliveries:
                push(now + _FAILOVER_DETECT_S, _EV_REDEAL, deliveries)

        def kill_shard(sid: int, now: float) -> None:
            shard = self.shards.get(sid)
            if shard is None or not shard.alive:
                record(now, -1, "kill_skipped", f"shard={sid}")
                return
            with obs.tracer().span(
                "fleet.failover", args={"shard": sid}
            ):
                shard.alive = False
                self._refresh_routable()
                shard.killed_at = now
                if sid in self.ring:
                    self.ring.remove(sid)
                counters["shard_kills"] += 1
                kill_c.inc()
                result.fault_events.append(
                    FaultEvent(SHARD_KILL, ("shard", sid))
                )
                queued = tuple(shard.queue)
                shard.queue.clear()
                record(now, -1, "shard_kill", f"shard={sid}", sid, queued)
                orphans = list(queued)
                # Void the dead shard's in-flight work: bumping the
                # epoch turns its already-scheduled completions into
                # stale events, so only the re-dealt copy can commit
                # (at-most-once execution).
                for rid in sorted(inflight):
                    req, isid, iep = inflight[rid]
                    if isid != sid:
                        continue
                    epoch[rid] = iep + 1
                    orphans.append((req, iep + 1))
                    del inflight[rid]
                    counters["voided_inflight"] += 1
                    record(now, rid, "void", f"epoch={iep + 1}", sid,
                           iep + 1)
                # Autoscale ticks only assess routable shards, so the
                # dead transition must be recorded here or never.
                h = self.monitor.assess(
                    sid, shard.server.breakers, 0, 0, now, alive=False
                )
                health_g.labels(shard=sid).set(h.code)
                redeal(orphans, now)

        def deliver_redeal(deliveries: List[Tuple], now: float) -> None:
            """Land re-dealt requests on their assigned survivors.

            Deliberately bypasses ``cfg.queue_depth``: every re-dealt
            request was already admitted, so shedding it here would
            break the zero-loss failover guarantee. A survivor queue may
            therefore transiently exceed the admission-time bound after
            a failover — by at most ``failover_redeal_cap`` per failure
            — while *new* arrivals still face the normal capacity check
            (and a deeper queue just sheds them sooner).
            """
            bounce: List[Tuple[ServingRequest, int]] = []
            for sid, req, ep in deliveries:
                shard = self.shards.get(sid)
                if shard is None or not shard.routable:
                    # Target died inside the detection window: deal its
                    # share out again over whoever is left.
                    bounce.append((req, ep))
                    continue
                shard.queue.append(req, ep)
                touched.add(sid)
                shard.stats["routed"] += 1
                record(now, req.request_id, "requeue", f"shard={sid}",
                       sid, ep)
            if bounce:
                redeal(bounce, now)

        # -------------------------------------------------- autoscaling
        def autoscale_tick(now: float) -> None:
            routable = self.routable_shards()
            alive_g.set(len(routable))
            healths = {}
            for shard in routable:
                h = self.monitor.assess(
                    shard.sid, shard.server.breakers, len(shard.queue),
                    len(shard.free_at) - len(shard.idle_replicas(now)),
                    now, alive=shard.alive,
                )
                healths[shard.sid] = h
                health_g.labels(shard=shard.sid).set(h.code)
                idle = (
                    not shard.queue
                    and len(shard.idle_replicas(now)) == len(shard.free_at)
                    and h.state == HEALTH_HEALTHY
                    and now >= shard.ready_at
                )
                shard.idle_ticks = shard.idle_ticks + 1 if idle else 0
            pressure = (
                sum(len(s.queue) for s in routable) / max(1, len(routable))
            )
            stressed = any(
                h.state == HEALTH_CRITICAL for h in healths.values()
            )
            if (
                (pressure >= cfg.scale_up_queue_depth or stressed)
                and len(routable) < cfg.max_shards
            ):
                shard = self._spawn_shard(now, now + _SPINUP_DELAY_S)
                counters["scale_ups"] += 1
                result.autoscale_events.append(
                    (round(now, 12), "up", shard.sid)
                )
                record(now, -1, "scale_up",
                       f"shard={shard.sid} pressure={pressure:.3f}")
                push(shard.ready_at, _EV_KICK, None)
            elif len(routable) > cfg.min_shards:
                victims = [
                    s for s in routable
                    if s.idle_ticks >= cfg.scale_down_idle_ticks
                ]
                if victims:
                    victim = max(victims, key=lambda s: s.sid)
                    self.ring.remove(victim.sid)
                    victim.draining = True
                    self._refresh_routable()
                    # Idle by construction: queue empty, replicas free —
                    # a graceful drain moves no work and loses nothing.
                    redeal(list(victim.queue), now)
                    victim.queue.clear()
                    victim.alive = False
                    h = self.monitor.assess(
                        victim.sid, victim.server.breakers, 0, 0, now,
                        alive=False,
                    )
                    health_g.labels(shard=victim.sid).set(h.code)
                    counters["scale_downs"] += 1
                    result.autoscale_events.append(
                        (round(now, 12), "down", victim.sid)
                    )
                    states = ",".join(
                        b.state for b in victim.server.breakers
                    )
                    record(now, -1, "scale_down",
                           f"shard={victim.sid} breakers={states}",
                           victim.sid)
            if now + cfg.autoscale_interval_s <= horizon_end:
                push(now + cfg.autoscale_interval_s, _EV_TICK, None)

        # -------------------------------------------------- event loop
        with obs.tracer().span(
            "fleet.trace",
            args={"requests": len(requests), "shards": len(self.shards)},
        ):
            while events:
                now, kind, _, payload = heapq.heappop(events)
                if kind == _EV_COMPLETION:
                    completion(now, payload)
                elif kind == _EV_ARRIVAL:
                    arrival(payload, now)
                elif kind == _EV_REDEAL:
                    deliver_redeal(payload, now)
                elif kind == _EV_KILL:
                    kill_shard(payload, now)
                elif kind == _EV_TICK:
                    autoscale_tick(now)
                dispatch_all(now)

        # -------------------------------------------------- wrap-up
        result.responses = [
            responses[r.request_id]
            for r in sorted(requests, key=lambda r: r.request_id)
            if r.request_id in responses
        ]
        missing = [
            r.request_id for r in requests if r.request_id not in responses
        ]
        lost = [
            rid for rid in admitted_ids
            if rid not in responses
            or responses[rid].status == STATUS_FAILED
        ]
        result.lost_request_ids = sorted(set(lost) | set(missing))
        counters["failed"] = sum(
            1 for r in result.responses if r.status == STATUS_FAILED
        )
        result.counters = counters
        result.shard_stats = {
            sid: {
                **shard.stats,
                "alive": shard.alive,
                "draining": shard.draining,
                "spawned_at": round(shard.spawned_at, 12),
                "killed_at": (
                    None if shard.killed_at is None
                    else round(shard.killed_at, 12)
                ),
            }
            for sid, shard in sorted(self.shards.items())
        }
        result.tenant_stats = self.governor.snapshot()
        result.health_transitions = list(self.monitor.transitions)
        for sid, shard in sorted(self.shards.items()):
            for when, old, new in (
                t for b in shard.server.breakers for t in b.transitions
            ):
                result.breaker_transitions.append((sid, when, old, new))
        result.breaker_transitions.sort(key=lambda t: (t[1], t[0]))
        logger.info(
            "fleet trace done: %d requests, %d served, %d lost, "
            "%d shard kills",
            len(requests), counters["served"],
            len(result.lost_request_ids), counters["shard_kills"],
        )
        return result
