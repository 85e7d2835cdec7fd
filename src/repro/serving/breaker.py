"""Token-bucket rate limiter and per-backend circuit breaker.

Both primitives take an explicit ``now`` (virtual seconds) on every
call — the serving layer schedules against simulated time, so neither
ever reads the host clock. That makes their state machines pure
functions of the call sequence and trivially replayable.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.util.errors import ConfigError

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Stable numeric encoding of the states (:attr:`CircuitBreaker.state_code`).
_STATE_CODE = {BREAKER_CLOSED: 0, BREAKER_OPEN: 1, BREAKER_HALF_OPEN: 2}


class TokenBucket:
    """Classic token bucket over virtual time.

    ``try_acquire(now)`` refills ``rate`` tokens per second up to
    ``capacity``, then either spends one token or reports how long the
    caller should wait (the ``retry_after`` hint surfaced in rejected
    responses).
    """

    def __init__(self, rate: float, capacity: int) -> None:
        # ConfigError subclasses ValueError, so plain ``except ValueError``
        # callers catch these too.
        if rate <= 0:
            raise ConfigError(
                f"token bucket rate must be positive, got {rate!r}"
            )
        if capacity <= 0:
            raise ConfigError(
                f"token bucket capacity must be positive, got {capacity!r}"
            )
        self.rate = float(rate)
        self.capacity = int(capacity)
        self.tokens = float(capacity)
        self._last_s = 0.0
        self.acquired = 0
        self.rejected = 0

    def _refill(self, now: float) -> None:
        if now > self._last_s:
            self.tokens = min(
                self.capacity, self.tokens + (now - self._last_s) * self.rate
            )
            self._last_s = now

    def try_acquire(self, now: float) -> Tuple[bool, float]:
        """Spend one token at ``now``; returns ``(ok, retry_after_s)``."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.acquired += 1
            return True, 0.0
        self.rejected += 1
        if self.rate <= 0:
            # Defensive: a bucket mutated to zero rate after construction
            # can never refill — "retry never" beats ZeroDivisionError.
            return False, float("inf")
        return False, (1.0 - self.tokens) / self.rate

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate}, capacity={self.capacity}, "
            f"tokens={self.tokens:.2f})"
        )


class CircuitBreaker:
    """closed -> open -> half-open state machine guarding one backend.

    ``failure_threshold`` consecutive failures trip the breaker open;
    after ``cooldown_s`` virtual seconds it admits ``halfopen_probes``
    trial launches, and that many consecutive successes close it again.
    A failure during half-open re-opens immediately (restarting the
    cooldown). Every transition is appended to :attr:`transitions` as
    ``(now, from_state, to_state)`` for the chaos tests.

    Half-open admits **one probe in flight at a time**: a caller that
    actually launches must reserve the slot with :meth:`start_probe`,
    and the slot is released by the matching ``record_success`` /
    ``record_failure``. While the slot is taken, :meth:`allow` returns
    False — concurrent callers cannot race a second probe through a
    breaker that is still waiting to learn whether the backend healed.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 0.02,
        halfopen_probes: int = 1,
    ) -> None:
        if failure_threshold <= 0:
            raise ConfigError("failure_threshold must be positive")
        if cooldown_s < 0:
            raise ConfigError("cooldown_s must be non-negative")
        if halfopen_probes <= 0:
            raise ConfigError("halfopen_probes must be positive")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.halfopen_probes = int(halfopen_probes)
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.probe_successes = 0
        self.probe_inflight = 0
        self.opened_at_s = 0.0
        self.transitions: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def _move(self, now: float, new_state: str) -> None:
        if new_state != self.state:
            self.transitions.append((now, self.state, new_state))
            self.state = new_state
            self.probe_inflight = 0

    def allow(self, now: float) -> bool:
        """May a launch be routed to this backend at ``now``?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self.opened_at_s >= self.cooldown_s:
                self._move(now, BREAKER_HALF_OPEN)
                self.probe_successes = 0
                return True
            return False
        # Half-open: admit one probe at a time — the slot frees when the
        # in-flight probe records its outcome.
        return self.probe_inflight < 1

    def start_probe(self, now: float) -> bool:
        """Reserve the half-open probe slot before actually launching.

        Returns True when the caller may proceed (always, outside
        half-open — closed breakers need no reservation and open ones
        should have been filtered by :meth:`allow`). In half-open the
        slot is exclusive: a second caller gets False until the first
        probe's ``record_success`` / ``record_failure`` releases it.
        """
        if self.state != BREAKER_HALF_OPEN:
            return self.state == BREAKER_CLOSED
        if self.probe_inflight >= 1:
            return False
        self.probe_inflight += 1
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.probe_inflight = max(0, self.probe_inflight - 1)
            self.probe_successes += 1
            if self.probe_successes >= self.halfopen_probes:
                self._move(now, BREAKER_CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            self.opened_at_s = now
            self._move(now, BREAKER_OPEN)
        elif (
            self.state == BREAKER_CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at_s = now
            self._move(now, BREAKER_OPEN)

    @property
    def state_code(self) -> int:
        """0=closed, 1=open, 2=half-open."""
        return _STATE_CODE[self.state]

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}, "
            f"transitions={len(self.transitions)})"
        )
