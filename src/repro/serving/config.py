"""Configuration for the overload-safe serving layer.

One frozen dataclass gathers every knob of the admission / degradation
pipeline so a serving experiment is reproducible from ``(ServingConfig,
trace seed)`` alone. The service-time cost model lives here too: the
server schedules against *virtual* seconds derived from these
coefficients, never the host clock, which is what makes every decision
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError
from repro.util.rng import DEFAULT_SEED


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for :class:`repro.serving.server.TensaurusServer`.

    Parameters
    ----------
    seed:
        Root seed; every stochastic choice (replica speed jitter, probe
        calibration) derives a child stream from it via
        :func:`repro.util.rng.derive_seed`.
    replicas:
        Number of simulated accelerator backends requests fan out over.
    queue_depth:
        Bounded admission queue length. Arrivals beyond it are shed (or
        evict a strictly lower-priority entry). ``shedding=False``
        disables the bound (the naive baseline).
    bucket_rate / bucket_burst:
        Token-bucket admission rate (requests per virtual second) and
        burst capacity. A drained bucket rejects with a ``retry_after``
        hint instead of queueing.
    breaker_failure_threshold:
        Consecutive backend failures that trip a replica's breaker open.
    breaker_cooldown_s:
        Virtual seconds an open breaker waits before allowing a
        half-open probe.
    breaker_halfopen_probes:
        Successful probes required to close a half-open breaker.
    full_headroom / batched_headroom:
        Fractions of the remaining deadline budget the estimated service
        time must fit inside to stay at the full / batched tier. Misses
        degrade one tier further; requests that cannot even fit the
        analytic tier are shed as infeasible.
    degrade_queue_depth:
        Queue backlog at or above which dispatch skips the full tier
        outright (load-based degradation, independent of deadlines).
    hedge_trigger:
        Launch a backup copy on the least-loaded idle replica when the
        primary's (deterministically jittered) service time exceeds
        ``hedge_trigger`` times the nominal estimate; first finisher
        wins, the loser is cancelled.
    service_jitter:
        Scale of the exponential tail on per-launch replica speed:
        ``factor = 1 + service_jitter * Exp(1)`` drawn from a seeded
        stream. Zero makes every replica run at nominal speed.
    full_base_s / full_per_nnz_s:
        Virtual service-time model for the full tier (per-launch
        overhead plus per-nonzero cost). The *simulated* kernel time is
        added on top, so heavier workloads really take longer.
    batched_base_s / batched_per_nnz_s:
        Same for the batched tier (no numeric output, cheaper).
    analytic_base_s:
        Flat virtual cost of a closed-form estimate.
    shedding:
        ``False`` switches off the bucket, the queue bound, degradation
        and hedging — the naive unbounded FIFO baseline the benchmark
        compares against.
    """

    seed: int = DEFAULT_SEED
    replicas: int = 2
    queue_depth: int = 8
    bucket_rate: float = 400.0
    bucket_burst: int = 16
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 0.02
    breaker_halfopen_probes: int = 1
    full_headroom: float = 0.8
    batched_headroom: float = 0.9
    degrade_queue_depth: int = 6
    hedge_trigger: float = 1.6
    service_jitter: float = 0.25
    full_base_s: float = 2.0e-3
    full_per_nnz_s: float = 2.0e-6
    batched_base_s: float = 8.0e-4
    batched_per_nnz_s: float = 5.0e-7
    analytic_base_s: float = 1.0e-4
    shedding: bool = True

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ConfigError("replicas must be positive")
        if self.queue_depth <= 0:
            raise ConfigError("queue_depth must be positive")
        if self.bucket_rate <= 0 or self.bucket_burst <= 0:
            raise ConfigError("token bucket rate and burst must be positive")
        if self.breaker_failure_threshold <= 0:
            raise ConfigError("breaker_failure_threshold must be positive")
        if self.breaker_cooldown_s < 0:
            raise ConfigError("breaker_cooldown_s must be non-negative")
        if self.breaker_halfopen_probes <= 0:
            raise ConfigError("breaker_halfopen_probes must be positive")
        if not 0 < self.full_headroom <= 1 or not 0 < self.batched_headroom <= 1:
            raise ConfigError("headroom fractions must be in (0, 1]")
        if self.hedge_trigger < 1:
            raise ConfigError("hedge_trigger must be >= 1")
        if self.service_jitter < 0:
            raise ConfigError("service_jitter must be non-negative")
        for name in (
            "full_base_s", "full_per_nnz_s", "batched_base_s",
            "batched_per_nnz_s", "analytic_base_s",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
