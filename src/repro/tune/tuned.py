"""Per-workload tuned-config registry, persisted through the artifact store.

A :class:`TunedRegistry` records the winning design point of each
:class:`~repro.tune.search.TuneOutcome` under the workload's content
fingerprint, so later runs (CLI, benchmarks, serving setup) can ask "has
this exact workload been tuned?" and get the params back without
re-searching. A small index entry keeps the set of known workloads
enumerable (the store itself is content-addressed and unlistable by
meaning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.artifacts import ArtifactStore
from repro.sim.config import TensaurusConfig
from repro.tune.search import TuneOutcome
from repro.tune.workload import TuneWorkload

#: Registry schema; bump when the entry layout changes.
TUNED_SCHEMA = "tuned-v1"
TUNED_NAMESPACE = "tuned"
_INDEX_PARTS = (TUNED_SCHEMA, "index")


@dataclass(frozen=True)
class TunedConfigEntry:
    """One tuned workload: the winning overrides and their provenance."""

    workload: str            # human-readable name at record time
    fingerprint: str         # content digest (the lookup key)
    kernel: str
    params: Dict[str, object]
    cycles: int
    baseline_cycles: int
    seed: int
    budget: int
    oracle_sims: int

    @property
    def improvement(self) -> float:
        return 1.0 - self.cycles / max(self.baseline_cycles, 1)

    def config(self, base: Optional[TensaurusConfig] = None) -> TensaurusConfig:
        """Realize the tuned config against ``base`` (paper default)."""
        return (base or TensaurusConfig()).scaled(**self.params)


class TunedRegistry:
    """Fingerprint-keyed store of tuned configs."""

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store

    # ------------------------------------------------------------------
    def _parts(self, fingerprint: str) -> tuple:
        return (TUNED_SCHEMA, fingerprint)

    def _index(self) -> Dict[str, str]:
        """fingerprint -> workload name for every recorded entry."""
        return dict(self.store.load(TUNED_NAMESPACE, _INDEX_PARTS, {}))

    def record(
        self, workload: TuneWorkload, outcome: TuneOutcome
    ) -> TunedConfigEntry:
        """Persist a search outcome as the tuned entry for ``workload``."""
        fp = workload.fingerprint()
        entry = TunedConfigEntry(
            workload=workload.name,
            fingerprint=fp,
            kernel=workload.kernel,
            params=dict(outcome.best_params),
            cycles=outcome.best_cycles,
            baseline_cycles=outcome.baseline_cycles,
            seed=outcome.seed,
            budget=outcome.budget,
            oracle_sims=outcome.oracle_sims,
        )
        self.store.put(TUNED_NAMESPACE, self._parts(fp), entry)
        index = self._index()
        index[fp] = workload.name
        self.store.put(TUNED_NAMESPACE, _INDEX_PARTS, index)
        return entry

    def lookup(self, workload: TuneWorkload) -> Optional[TunedConfigEntry]:
        """The tuned entry for this exact workload content, if recorded."""
        return self.store.load(
            TUNED_NAMESPACE, self._parts(workload.fingerprint())
        )

    def config_for(
        self,
        workload: TuneWorkload,
        base: Optional[TensaurusConfig] = None,
    ) -> TensaurusConfig:
        """The tuned config for ``workload``, or ``base`` when untuned."""
        entry = self.lookup(workload)
        base = base or TensaurusConfig()
        return entry.config(base) if entry is not None else base

    def entries(self) -> List[TunedConfigEntry]:
        """Every recorded entry, sorted by workload name then fingerprint."""
        out = []
        for fp in self._index():
            entry = self.store.load(TUNED_NAMESPACE, self._parts(fp))
            if entry is not None:
                out.append(entry)
        return sorted(out, key=lambda e: (e.workload, e.fingerprint))

    def as_table(self) -> str:
        """Human-readable summary (the ``repro tune --list`` output)."""
        entries = self.entries()
        if not entries:
            return "no tuned configs recorded"
        lines = [
            f"{'workload':<28} {'kernel':<8} {'improvement':>11} "
            f"{'cycles':>12} {'params'}"
        ]
        for e in entries:
            params = ", ".join(f"{k}={v}" for k, v in sorted(e.params.items()))
            lines.append(
                f"{e.workload:<28} {e.kernel:<8} {e.improvement:>10.1%} "
                f"{e.cycles:>12,} {params or '(paper default)'}"
            )
        return "\n".join(lines)
