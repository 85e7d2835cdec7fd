"""Three-tier graceful-degradation ladder.

Under light load every request gets the real thing: a cycle-accurate
simulation with numeric output, bit-identical to calling
:meth:`repro.sim.Tensaurus.run_mttkrp` directly. As deadline headroom
or queue capacity shrinks the fleet steps down the ladder:

- ``full``     — cycle simulator, ``compute_output=True``;
- ``batched``  — cycle simulator, ``compute_output=False`` (identical
  timing numbers, no numeric output — flagged degraded);
- ``analytic`` — :class:`repro.sim.perfmodel.FastModel` closed-form
  estimate (flagged degraded, with a calibrated cycle-error bound).

The analytic tier needs no backend at all, which is also what keeps a
shard answering when every replica's circuit breaker is open.

Both simulators are deterministic per (config, operands), so the ladder
memoizes launches: each (kernel, workload) is simulated once per ladder,
with output, and that one report answers both simulator tiers (the
batched tier as the same report without its output). Later launches
replay it through :meth:`repro.sim.Tensaurus.replay`, which still draws
each launch's faults and sends a faulting launch back to the live
simulator. The analytic tier memoizes its estimates the same way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.config import TensaurusConfig
from repro.sim.perfmodel import FastModel
from repro.sim.report import SimReport
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed

TIER_FULL = "full"
TIER_BATCHED = "batched"
TIER_ANALYTIC = "analytic"

#: Tiers in decreasing-fidelity order (the ladder).
TIERS = (TIER_FULL, TIER_BATCHED, TIER_ANALYTIC)


def calibrate_analytic_error(
    sim_config: TensaurusConfig,
    pool,
    seed: int = 0,
    probes: int = 4,
) -> float:
    """Measured worst-case relative cycle error of the analytic tier.

    Runs ``probes`` seeded (kernel, workload) pairs through both the
    cycle simulator and :class:`FastModel` and returns the maximum
    relative cycle discrepancy — the ``error_bound`` attached to every
    analytic-tier response. Deterministic for a given pool and seed.
    """
    from repro.sim.accelerator import Tensaurus
    from repro.util.rng import make_rng

    if probes <= 0:
        raise ConfigError("probes must be positive")
    pairs = pool.choices()
    rng = make_rng(derive_seed(seed, "ladder", "calibration"))
    picks = sorted(
        int(i) for i in rng.choice(len(pairs), size=min(probes, len(pairs)),
                                   replace=False)
    )
    acc = Tensaurus(sim_config)
    fast = FastModel(sim_config)
    worst = 0.0
    for i in picks:
        kernel, workload = pairs[i]
        item = pool[workload]
        simulated = item.run(kernel, acc, compute_output=False)
        predicted = fast.run(kernel, item.operand, *item.ranks)
        err = abs(predicted.cycles - simulated.cycles) / max(simulated.cycles, 1)
        worst = max(worst, err)
    return worst


class DegradationLadder:
    """Executes a workload at a chosen fidelity tier.

    Holds the shared :class:`FastModel` (the analytic tier is host-side
    and backend-free), the calibrated analytic error bound and the
    launch memo. The ``accelerator`` argument of :meth:`execute` is only
    consulted for the two simulator tiers.

    The memo maps (kernel, workload fingerprint) to the last fault-free
    simulator report, run with output, and the accelerator config that
    produced it; the analytic tier keeps its own entry. So it holds at
    most two entries for each (kernel, workload) the ladder serves. It
    lives and dies with this instance. A full-tier answer shares the
    stored output array, made read-only; a batched-tier answer is the
    same report with ``output=None``. Everything else in a returned
    report is its own copy (:meth:`SimReport.clone`).
    """

    def __init__(
        self,
        sim_config: Optional[TensaurusConfig] = None,
        analytic_error_bound: float = 0.0,
    ) -> None:
        self.sim_config = sim_config or TensaurusConfig()
        self.fast = FastModel(self.sim_config)
        self.analytic_error_bound = float(analytic_error_bound)
        self._memo: Dict[
            Tuple[str, ...], Tuple[TensaurusConfig, SimReport]
        ] = {}

    def execute(
        self, tier: str, item, kernel: str, accelerator=None
    ) -> Tuple[SimReport, bool, float]:
        """Run ``item``'s ``kernel`` at ``tier``.

        Returns ``(report, degraded, error_bound)``. Simulator tiers may
        raise :class:`repro.util.errors.FaultError` (the caller's breaker
        handles that); the analytic tier cannot fault. Reports equal a
        direct ``item.run`` / ``FastModel.run`` call's, and an armed
        fault plan sees the same launch sequence.
        """
        if tier == TIER_ANALYTIC:
            return (
                self._analytic(item, kernel),
                True,
                self.analytic_error_bound,
            )
        if tier not in (TIER_FULL, TIER_BATCHED):
            raise ConfigError(f"unknown degradation tier {tier!r}")
        if accelerator is None:
            raise ConfigError(f"{tier} tier requires an accelerator")
        # The batched tier is timing-exact but has no numeric output:
        # degraded, zero error.
        return (
            self._simulate(tier, item, kernel, accelerator),
            tier == TIER_BATCHED,
            0.0,
        )

    def _simulate(self, tier: str, item, kernel: str, accelerator) -> SimReport:
        # One entry answers both simulator tiers: the batched tier's
        # timing is the full tier's, so a live launch always computes the
        # output and the batched answer drops it.
        key = (kernel, item.fingerprint)
        entry = self._memo.get(key)
        report = None
        if entry is not None and entry[0] == accelerator.config:
            report = accelerator.replay(entry[1])
        if report is None:
            report = item.run(kernel, accelerator, compute_output=True)
            if report.fault_free:
                report.output.setflags(write=False)
                self._memo[key] = (accelerator.config, report.clone())
        if tier == TIER_BATCHED:
            report.output = None
        return report

    def _analytic(self, item, kernel: str) -> SimReport:
        key = (TIER_ANALYTIC, kernel, item.fingerprint)
        entry = self._memo.get(key)
        if entry is None:
            entry = (
                self.sim_config,
                self.fast.run(kernel, item.operand, *item.ranks),
            )
            self._memo[key] = entry
        return entry[1].clone()

    @staticmethod
    def next_lower(tier: str) -> Optional[str]:
        """The tier one rung down, or None below the analytic floor."""
        idx = TIERS.index(tier)
        return TIERS[idx + 1] if idx + 1 < len(TIERS) else None
