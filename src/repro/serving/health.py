"""Shard health assessment for the serving fleet.

Folds the two robustness signals the fleet already produces — each
replica's :class:`~repro.serving.breaker.CircuitBreaker` state and the
shard's queue backlog — into one score and a small state enum the
autoscaler and failover logic key off:

- ``healthy``  — breakers closed, queue shallow; full routing weight.
- ``degraded`` — some breakers probing/open or a meaningful backlog;
  still serves, but autoscaling counts it as pressure.
- ``critical`` — most replicas unreachable or the queue at capacity;
  scale-up trigger.
- ``dead``     — the shard was killed or fully drained; it owns no
  ring arcs and its work has been re-dealt.

Scores are deterministic functions of observable state (no clocks, no
randomness), so health decisions replay exactly with the fleet's
decision log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.serving.breaker import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.util.errors import ConfigError

HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded"
HEALTH_CRITICAL = "critical"
HEALTH_DEAD = "dead"

#: Stable numeric encoding for the ``fleet.shard_health`` gauge.
HEALTH_CODE = {
    HEALTH_HEALTHY: 0,
    HEALTH_DEGRADED: 1,
    HEALTH_CRITICAL: 2,
    HEALTH_DEAD: 3,
}


@dataclass(frozen=True)
class ShardHealth:
    """One shard's folded health at a point in virtual time."""

    shard: int
    state: str
    score: float
    open_breakers: int
    half_open_breakers: int
    queue_depth: int
    busy_replicas: int

    @property
    def code(self) -> int:
        return HEALTH_CODE[self.state]

    @property
    def routable(self) -> bool:
        """Dead shards never receive new work; everything else does
        (degraded/critical shards still serve, they just raise scaling
        pressure)."""
        return self.state != HEALTH_DEAD


#: Score bands: a live shard scoring at least ``DEGRADED_SCORE`` is
#: degraded, at least ``CRITICAL_SCORE`` critical.
DEGRADED_SCORE = 0.25
CRITICAL_SCORE = 0.7


class HealthMonitor:
    """Scores shards from breaker state + queue depth.

    ``score = 0.6 * open_fraction + 0.2 * half_open_fraction +
    0.4 * queue_fill`` (clamped to 1): a shard with every breaker open
    or a full queue saturates, one with a probing breaker and a light
    backlog sits in the degraded band. :data:`DEGRADED_SCORE` and
    :data:`CRITICAL_SCORE` carve the score into the three live states.
    """

    def __init__(self, queue_capacity: int) -> None:
        if queue_capacity <= 0:
            raise ConfigError("queue_capacity must be positive")
        self.queue_capacity = int(queue_capacity)
        #: last observed state per shard, for transition logging.
        self.last_state: Dict[int, str] = {}
        self.transitions: List = []

    def assess(
        self,
        shard: int,
        breakers: Sequence[CircuitBreaker],
        queue_depth: int,
        busy_replicas: int,
        now: float,
        alive: bool = True,
    ) -> ShardHealth:
        n = max(1, len(breakers))
        open_b = sum(1 for b in breakers if b.state == BREAKER_OPEN)
        half_b = sum(1 for b in breakers if b.state == BREAKER_HALF_OPEN)
        fill = min(1.0, queue_depth / self.queue_capacity)
        score = min(
            1.0, 0.6 * (open_b / n) + 0.2 * (half_b / n) + 0.4 * fill
        )
        if not alive:
            state = HEALTH_DEAD
        elif score >= CRITICAL_SCORE:
            state = HEALTH_CRITICAL
        elif score >= DEGRADED_SCORE:
            state = HEALTH_DEGRADED
        else:
            state = HEALTH_HEALTHY
        previous = self.last_state.get(shard)
        if previous != state:
            self.transitions.append(
                (round(now, 12), shard, previous, state)
            )
            self.last_state[shard] = state
        return ShardHealth(
            shard=shard,
            state=state,
            score=round(score, 12),
            open_breakers=open_b,
            half_open_breakers=half_b,
            queue_depth=int(queue_depth),
            busy_replicas=int(busy_replicas),
        )

    def __repr__(self) -> str:
        return (
            f"HealthMonitor(queue_capacity={self.queue_capacity}, "
            f"transitions={len(self.transitions)})"
        )
