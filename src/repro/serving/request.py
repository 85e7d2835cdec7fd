"""Request/response value objects for the serving layer.

A :class:`ServingRequest` is pure data — kernel name, workload key,
virtual arrival time, deadline budget, priority — so traces serialize
trivially and replay deterministically. A :class:`ServingResponse`
records what the server decided and (for served requests) the actual
:class:`repro.sim.SimReport` the backend produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.util.errors import ConfigError

#: Terminal request statuses.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"  # tenant token bucket / queue bound said no
STATUS_SHED = "shed"          # evicted from a full queue by a higher priority
STATUS_FAILED = "failed"      # overflowed the re-deal cap after a shard kill


@dataclass(frozen=True)
class ServingRequest:
    """One unit of work offered to the server.

    ``deadline_s`` is a *relative* budget: the absolute deadline is
    ``arrival_s + deadline_s``. Priorities are small ints, higher wins;
    under queue pressure a new high-priority arrival may evict a queued
    strictly-lower-priority request. ``tenant`` names the quota bucket
    the fleet charges this request against (single-tenant traces can
    leave the default).
    """

    request_id: int
    arrival_s: float
    kernel: str
    workload: str
    deadline_s: float
    priority: int = 1
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigError("arrival_s must be non-negative")
        if self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")

    @property
    def absolute_deadline_s(self) -> float:
        return self.arrival_s + self.deadline_s


@dataclass
class ServingResponse:
    """Outcome of one request: decision, timing, and (if served) report."""

    request_id: int
    status: str
    tier: Optional[str] = None
    degraded: bool = False
    error_bound: float = 0.0
    shard: Optional[int] = None
    epoch: int = 0
    replica: Optional[int] = None
    arrival_s: float = 0.0
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    deadline_s: float = 0.0
    retry_after_s: float = 0.0
    hedged: bool = False
    hedge_won: bool = False
    report: Any = None  # SimReport for served requests, else None
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def served(self) -> bool:
        return self.status == STATUS_OK

    @property
    def latency_s(self) -> Optional[float]:
        """Arrival-to-finish virtual latency; None for unserved requests."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def deadline_hit(self) -> bool:
        """Served within budget (unserved requests never hit)."""
        if self.finish_s is None or self.status != STATUS_OK:
            return False
        return self.finish_s <= self.arrival_s + self.deadline_s + 1e-12

    def log_row(self) -> Tuple:
        """Deterministic flat tuple for decision-log comparison."""
        return (
            self.request_id,
            self.status,
            self.tier,
            self.degraded,
            self.shard,
            self.epoch,
            self.replica,
            self.hedged,
            self.hedge_won,
            None if self.finish_s is None else round(self.finish_s, 12),
        )
