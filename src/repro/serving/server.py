"""The replica bundle of one serving shard.

:class:`TensaurusServer` holds what one shard of a
:class:`~repro.serving.fleet.TensaurusFleet` serves with: a real
:class:`~repro.sim.Tensaurus` and a :class:`CircuitBreaker` per replica,
and the seeded virtual service-time model (per-tier base + per-nonzero
cost, times a per-launch replica speed factor with an exponential
tail). The kernels still execute for real — a full-tier response carries
the same bit-identical :class:`repro.sim.SimReport` a direct
:meth:`repro.sim.Tensaurus.run_mttkrp` call would return — but *when*
things happen is simulated, which is what makes every decision replay
exactly for a given seed.

The bundle makes no decisions: admission, queueing, tier choice,
hedging and breaker outcomes all live in the fleet's one event loop. A
single-node server is a one-shard fleet.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.serving.breaker import CircuitBreaker
from repro.serving.config import ServingConfig
from repro.serving.ladder import TIER_BATCHED, TIER_FULL
from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.faults import FaultPlan
from repro.util.rng import uniform


class TensaurusServer:
    """One shard's simulated replicas and its service-time model."""

    def __init__(
        self,
        serving_config: ServingConfig,
        replicas: int,
        seed: int,
        sim_config: TensaurusConfig,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = serving_config
        #: root of the per-launch speed draws (the fleet derives one per
        #: shard).
        self.seed = seed
        # Distinct fault epochs per replica: each backend draws an
        # independent (but deterministic) fault stream.
        self.accelerators = [
            Tensaurus(sim_config, fault_plan=fault_plan, fault_epoch=i)
            for i in range(replicas)
        ]
        self.breakers = [
            CircuitBreaker(
                serving_config.breaker_failure_threshold,
                serving_config.breaker_cooldown_s,
                serving_config.breaker_halfopen_probes,
            )
            for _ in range(replicas)
        ]

    # ------------------------------------------------------------------
    # Deterministic service-time model
    # ------------------------------------------------------------------
    def _speed_factor(self, request_id: int, replica: int, role: str) -> float:
        """Per-launch replica slowdown: 1 + jitter * Exp(1), seeded."""
        if self.config.service_jitter <= 0:
            return 1.0
        u = uniform(self.seed, "speed", request_id, replica, role)
        return 1.0 + self.config.service_jitter * -math.log1p(-u)

    def _nominal_s(self, tier: str, nnz: int) -> float:
        cfg = self.config
        if tier == TIER_FULL:
            return cfg.full_base_s + cfg.full_per_nnz_s * nnz
        if tier == TIER_BATCHED:
            return cfg.batched_base_s + cfg.batched_per_nnz_s * nnz
        return cfg.analytic_base_s
