"""Budgeted config search: the cost model prunes, the simulator decides.

The :class:`Tuner` runs a seeded successive-refinement loop over a
:class:`~repro.tune.space.ConfigSpace`:

1. **Bootstrap round** — rank every candidate by the closed-form
   :class:`~repro.sim.perfmodel.FastModel` estimate; measure the top half
   of the first batch on the cycle-level simulator plus a seeded-random
   half (so the ridge fit sees contrast, not just the analytic model's
   favourites).
2. **Refinement rounds** — refit the :class:`~repro.tune.cost.CostModel`
   on every oracle measurement so far, measure the top ``batch - 1``
   unmeasured candidates by *predicted* cycles plus one seeded-random
   exploration pick, until the measurement budget is spent.

The cycle-level oracle is dispatched through
:func:`repro.sim.sweep.sweep_points` (which fans a batch out over a
process pool when it is large enough to pay for one) and memoized in an
:class:`~repro.artifacts.ArtifactStore` keyed on the workload fingerprint
and the realized config — a re-run of the same search costs zero
simulations and returns a bit-identical outcome.

Determinism contract: the search trajectory depends only on
``(workload, space, base, seed, budget, batch)``. Cache warmth changes
``oracle_sims`` (how many simulator invocations actually ran), never
``oracle_evals`` (how many design points were measured) nor which points
those are. The baseline config is always measured, so the tuned config is
never worse than the paper's fixed design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.artifacts import ArtifactStore
from repro.sim.config import TensaurusConfig
from repro.sim.sweep import sweep_points
from repro.tune.cost import CostModel, featurize
from repro.tune.space import ConfigSpace
from repro.tune.workload import TuneWorkload
from repro.util.errors import ConfigError
from repro.util.rng import make_rng

#: Oracle-cache schema; bump when the cached summary layout changes.
ORACLE_SCHEMA = "tune-oracle-v1"
ORACLE_NAMESPACE = "tune-oracle"


def _point_key(params: Dict[str, object]) -> str:
    """Canonical JSON key for a parameter override dict."""
    return json.dumps(params, sort_keys=True, default=repr)


@dataclass
class Measurement:
    """One oracle-measured design point."""

    params: Dict[str, object]
    cycles: int
    ops: int
    total_bytes: int
    source: str  # "sim" | "cache"

    def to_json(self) -> dict:
        return {
            "params": dict(self.params),
            "cycles": self.cycles,
            "ops": self.ops,
            "total_bytes": self.total_bytes,
            "source": self.source,
        }


@dataclass
class TuneRound:
    """One batch of oracle measurements plus the model state that chose it."""

    index: int
    kind: str  # "baseline" | "bootstrap" | "refine"
    measurements: List[Measurement]
    best_cycles: int          # best seen after this round
    model: dict = field(default_factory=dict)  # CostModel.snapshot()

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "measurements": [m.to_json() for m in self.measurements],
            "best_cycles": self.best_cycles,
            "model": self.model,
        }


@dataclass
class TuneOutcome:
    """Everything a search produced, JSON-serializable for benchmarks."""

    workload: str
    kernel: str
    seed: int
    budget: int
    batch: int
    space_size: int
    baseline_cycles: int
    best_params: Dict[str, object]
    best_cycles: int
    best_config: TensaurusConfig
    rounds: List[TuneRound]
    oracle_evals: int   # measured design points (baseline included)
    oracle_sims: int    # actual simulator invocations (cache misses)
    cache_hits: int

    @property
    def improvement(self) -> float:
        """Fractional cycle reduction vs the baseline config (>= 0)."""
        return 1.0 - self.best_cycles / max(self.baseline_cycles, 1)

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / max(self.best_cycles, 1)

    def trajectory_digest(self) -> str:
        """Digest of everything cache warmth must not change: which points
        were measured in which order, their cycle counts, the model
        weights, and the winner. Two searches with the same (workload,
        space, base, seed, budget, batch) must agree on this whether their
        oracle calls hit the memo store or ran the simulator."""
        from repro.artifacts import fingerprint_value

        trail = [
            (
                r.kind,
                [(_point_key(m.params), m.cycles) for m in r.measurements],
                r.model.get("weights"),
            )
            for r in self.rounds
        ]
        return fingerprint_value(
            "tune-trajectory-v1", self.workload, self.seed, self.budget,
            self.batch, self.space_size, self.baseline_cycles,
            _point_key(self.best_params), self.best_cycles, repr(trail),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "workload": self.workload,
            "kernel": self.kernel,
            "seed": self.seed,
            "budget": self.budget,
            "batch": self.batch,
            "space_size": self.space_size,
            "baseline_cycles": self.baseline_cycles,
            "best_params": dict(self.best_params),
            "best_cycles": self.best_cycles,
            "improvement": self.improvement,
            "speedup": self.speedup,
            "oracle_evals": self.oracle_evals,
            "oracle_sims": self.oracle_sims,
            "cache_hits": self.cache_hits,
            "trajectory_digest": self.trajectory_digest(),
            "rounds": [r.to_json() for r in self.rounds],
        }
        return json.dumps(payload, indent=indent, default=repr)


class Tuner:
    """Seeded, budgeted, cache-aware search over a config space."""

    def __init__(
        self,
        workload: TuneWorkload,
        space: Optional[ConfigSpace] = None,
        base: Optional[TensaurusConfig] = None,
        *,
        seed: int = 0,
        budget: int = 32,
        batch: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
        ridge_lambda: float = 1e-2,
    ) -> None:
        from repro.tune.space import default_space

        self.workload = workload
        self.space = space if space is not None else default_space(base)
        self.base = base if base is not None else self.space.base
        if budget < 2:
            raise ConfigError("budget must be at least 2 measurements")
        self.seed = int(seed)
        self.budget = int(budget)
        self.batch = int(batch) if batch else max(2, min(8, budget // 4))
        self.store = store
        self.model = CostModel(ridge_lambda=ridge_lambda)
        self.oracle_sims = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def _measure(
        self, points: Sequence[Dict[str, object]], runner
    ) -> List[Measurement]:
        """Oracle-measure ``points`` (store-memoized), preserving order."""
        # One content hash of the operand per batch, not two per point.
        workload_key = (
            self.workload.fingerprint() if self.store is not None else None
        )

        def oracle_parts(config: TensaurusConfig) -> tuple:
            return (ORACLE_SCHEMA, workload_key, repr(config))

        cached: Dict[int, dict] = {}
        misses: List[Tuple[int, Dict[str, object]]] = []
        for i, params in enumerate(points):
            config = self.base.scaled(**params)
            summary = (
                self.store.load(ORACLE_NAMESPACE, oracle_parts(config))
                if self.store is not None
                else None
            )
            if summary is not None:
                cached[i] = summary
            else:
                misses.append((i, params))
        counter = obs.metrics().counter(
            "tune.oracle", "oracle measurements by source", ("status",)
        )
        self.cache_hits += len(cached)
        counter.labels(status="cached").inc(len(cached))
        if misses:
            result = sweep_points(
                self.base, [params for _, params in misses], runner
            )
            self.oracle_sims += len(misses)
            counter.labels(status="sim").inc(len(misses))
            for (i, _params), point in zip(misses, result):
                summary = {
                    "cycles": int(point.report.cycles),
                    "ops": int(point.report.ops),
                    "total_bytes": int(point.report.total_bytes),
                    "msu_mode": point.report.detail.get("msu_mode"),
                }
                cached[i] = summary
                if self.store is not None:
                    self.store.put(
                        ORACLE_NAMESPACE, oracle_parts(point.config), summary
                    )
        missed = {i for i, _ in misses}
        out: List[Measurement] = []
        for i, params in enumerate(points):
            s = cached[i]
            out.append(
                Measurement(
                    params=dict(params),
                    cycles=s["cycles"],
                    ops=s["ops"],
                    total_bytes=s["total_bytes"],
                    source="sim" if i in missed else "cache",
                )
            )
        return out

    # ------------------------------------------------------------------
    def search(self) -> TuneOutcome:
        """Run the budgeted search and return the tuned outcome."""
        wl = self.workload
        candidates = self.space.points()
        rng = make_rng(self.seed)
        with obs.tracer().span(
            "tune.search",
            args={
                "workload": wl.name,
                "budget": self.budget,
                "space": len(candidates),
            },
        ):
            return self._search(candidates, rng, wl.runner())

    def _search(self, candidates, rng, runner) -> TuneOutcome:
        wl = self.workload
        # Features are cheap-tier only — compute them once for everyone.
        feats = [
            featurize(cfg, wl.fast_report(cfg))
            for _params, cfg in self.space.configs()
        ]
        fast_order = np.argsort(
            [f[1] for f in feats], kind="stable"
        )  # f[1] is log_fast
        rounds: List[TuneRound] = []
        measured: Dict[str, Measurement] = {}

        def run_round(kind: str, idxs: Sequence[int]) -> None:
            points = [candidates[i] for i in idxs]
            with obs.tracer().span(
                "tune.round", args={"kind": kind, "points": len(points)}
            ):
                batch = self._measure(points, runner)
            for i, m in zip(idxs, batch):
                measured[_point_key(m.params)] = m
                self.model.observe(feats[i], m.cycles)
            best = min(m.cycles for m in measured.values())
            rounds.append(
                TuneRound(
                    index=len(rounds),
                    kind=kind,
                    measurements=batch,
                    best_cycles=min(best, baseline.cycles),
                    model=self.model.snapshot(),
                )
            )

        # Baseline: the paper's fixed design, measured through the same
        # memoized oracle path (the search can never return worse).
        baseline = self._measure([{}], runner)[0]
        self.model.observe(featurize(self.base, wl.fast_report(self.base)),
                           baseline.cycles)
        rounds.append(
            TuneRound(
                index=0,
                kind="baseline",
                measurements=[baseline],
                best_cycles=baseline.cycles,
                model=self.model.snapshot(),
            )
        )

        unmeasured = list(range(len(candidates)))

        def take(idxs: List[int]) -> List[int]:
            for i in idxs:
                unmeasured.remove(i)
            return idxs

        remaining = min(self.budget, len(candidates))
        # Bootstrap: half analytic-model favourites, half seeded-random.
        first = min(self.batch, remaining)
        n_top = (first + 1) // 2
        picks = take([int(i) for i in fast_order[:n_top]])
        pool = sorted(unmeasured)
        n_rand = min(first - len(picks), len(pool))
        if n_rand > 0:
            ridx = rng.choice(len(pool), size=n_rand, replace=False)
            picks += take(sorted(pool[i] for i in ridx.tolist()))
        run_round("bootstrap", picks)
        remaining -= len(picks)

        # Refinement: refit, exploit top predictions, keep one explore slot.
        while remaining > 0 and unmeasured:
            self.model.fit()
            first = min(self.batch, remaining, len(unmeasured))
            pool = sorted(unmeasured)
            preds = self.model.predict_log(np.vstack([feats[i] for i in pool]))
            order = np.argsort(np.atleast_1d(preds), kind="stable")
            n_exploit = first - 1 if first > 1 and len(pool) > first else first
            picks = take([pool[int(i)] for i in order[:n_exploit]])
            if n_exploit < first:
                pool = sorted(unmeasured)
                ridx = int(rng.integers(0, len(pool)))
                picks += take([pool[ridx]])
            run_round("refine", picks)
            remaining -= len(picks)

        # Deterministic winner: fewest cycles, then canonical params key.
        best = min(
            measured.values(), key=lambda m: (m.cycles, _point_key(m.params))
        )
        if best.cycles >= baseline.cycles:
            best = baseline
        obs.metrics().counter(
            "tune.searches", "completed tune searches", ("kernel",)
        ).labels(kernel=wl.kernel).inc()
        return TuneOutcome(
            workload=wl.name,
            kernel=wl.kernel,
            seed=self.seed,
            budget=self.budget,
            batch=self.batch,
            space_size=len(candidates),
            baseline_cycles=baseline.cycles,
            best_params=dict(best.params),
            best_cycles=best.cycles,
            best_config=self.base.scaled(**best.params),
            rounds=rounds,
            oracle_evals=len(measured) + 1,
            oracle_sims=self.oracle_sims,
            cache_hits=self.cache_hits,
        )


def exhaustive_search(
    workload: TuneWorkload,
    space: ConfigSpace,
    base: Optional[TensaurusConfig] = None,
    *,
    store: Optional[ArtifactStore] = None,
) -> Tuple[Dict[str, object], int, int]:
    """Oracle-measure *every* point (the tuner's ground-truth baseline).

    Returns ``(best_params, best_cycles, oracle_sims)``. Shares the tuner's
    memoized oracle, so a grid run after a search only simulates the
    points the search skipped.
    """
    tuner = Tuner(workload, space, base, budget=2, store=store)
    runner = workload.runner()
    baseline = tuner._measure([{}], runner)[0]
    batch = tuner._measure(space.points(), runner)
    best = min(batch, key=lambda m: (m.cycles, _point_key(m.params)))
    if best.cycles >= baseline.cycles:
        best = baseline
    return dict(best.params), best.cycles, tuner.oracle_sims
