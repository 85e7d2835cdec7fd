"""The replica bundle of one serving shard, and the service-time model.

:class:`TensaurusServer` holds what one shard of a
:class:`~repro.serving.fleet.TensaurusFleet` serves with: a real
:class:`~repro.sim.Tensaurus` and a :class:`CircuitBreaker` per replica,
and the seed of its per-launch replica speed draws. The virtual
service-time model is this module's constants: a per-tier base plus
per-nonzero cost (:func:`nominal_s`), times a per-launch speed factor
with an exponential tail (:meth:`TensaurusServer._speed_factor`). The
kernels still execute for real — a full-tier response carries the same
bit-identical :class:`repro.sim.SimReport` a direct
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
from repro.serving.ladder import TIER_BATCHED, TIER_FULL
from repro.sim.accelerator import Tensaurus
from repro.sim.config import TensaurusConfig
from repro.sim.faults import FaultPlan
from repro.util.rng import uniform

#: Scale of the exponential tail on per-launch replica speed:
#: ``factor = 1 + SERVICE_JITTER * Exp(1)``, drawn from a seeded stream.
SERVICE_JITTER = 0.25
#: Virtual per-launch overhead and per-nonzero cost of the full tier.
#: The *simulated* kernel time is added on top, so heavier workloads
#: really take longer.
FULL_BASE_S = 2.0e-3
FULL_PER_NNZ_S = 2.0e-6
#: The same for the batched tier (no numeric output, cheaper).
BATCHED_BASE_S = 8.0e-4
BATCHED_PER_NNZ_S = 5.0e-7
#: Flat virtual cost of a closed-form analytic estimate.
ANALYTIC_BASE_S = 1.0e-4


def nominal_s(tier: str, nnz: int) -> float:
    """Virtual service time of one ``tier`` launch over ``nnz`` nonzeros
    at nominal replica speed."""
    if tier == TIER_FULL:
        return FULL_BASE_S + FULL_PER_NNZ_S * nnz
    if tier == TIER_BATCHED:
        return BATCHED_BASE_S + BATCHED_PER_NNZ_S * nnz
    return ANALYTIC_BASE_S


class TensaurusServer:
    """One shard's simulated replicas and its speed draws."""

    def __init__(
        self,
        replicas: int,
        seed: int,
        sim_config: TensaurusConfig,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        #: root of the per-launch speed draws (the fleet derives one per
        #: shard).
        self.seed = seed
        # Distinct fault epochs per replica: each backend draws an
        # independent (but deterministic) fault stream.
        self.accelerators = [
            Tensaurus(sim_config, fault_plan=fault_plan, fault_epoch=i)
            for i in range(replicas)
        ]
        self.breakers = [CircuitBreaker() for _ in range(replicas)]

    def _speed_factor(self, request_id: int, replica: int, role: str) -> float:
        """Per-launch replica slowdown: 1 + jitter * Exp(1), seeded."""
        u = uniform(self.seed, "speed", request_id, replica, role)
        return 1.0 + SERVICE_JITTER * -math.log1p(-u)
