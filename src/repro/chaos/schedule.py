"""Typed fault schedules over virtual time.

A :class:`ChaosSchedule` is a seeded, serializable point in fault space:
a tuple of typed :class:`ChaosEvent`\\ s (shard kills at a fraction of
the trace horizon, HBM outages/stalls, PE-lane dropouts, launch aborts,
breaker storms) plus the trace shape they are applied to. It compiles
onto the existing :class:`repro.sim.faults.FaultPlan` — kills become
``forced_shard_kills``, rate events combine as independent hazards — so
the exact machinery the fleet already trusts executes the schedule, and
the same seed always replays the same run.

``to_json``/``from_json`` round-trip exactly (asserted by tests); the
regression corpus persists schedules this way and CI replays them
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.sim.faults import (
    HBM_OUTAGE,
    HBM_STALL,
    LANE_DROPOUT,
    LAUNCH_ABORT,
    SHARD_KILL,
    FaultPlan,
)
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "BREAKER_STORM",
    "EVENT_KINDS",
    "ChaosEvent",
    "ChaosSchedule",
    "ScheduleGenerator",
]

#: A burst of launch failures dense enough to open circuit breakers —
#: modeled as a high launch-abort hazard (breakers open through the
#: same record_failure path real faults take).
BREAKER_STORM = "breaker_storm"

#: Every event kind a schedule may contain, in generator draw order.
EVENT_KINDS = (
    SHARD_KILL,
    HBM_OUTAGE,
    HBM_STALL,
    LANE_DROPOUT,
    LAUNCH_ABORT,
    BREAKER_STORM,
)

#: Per-kind magnitude ranges the generator draws from (rate events).
_MAGNITUDE_RANGES: Dict[str, Tuple[float, float]] = {
    HBM_OUTAGE: (0.05, 0.5),
    HBM_STALL: (0.05, 0.5),
    LANE_DROPOUT: (0.05, 0.3),
    LAUNCH_ABORT: (0.02, 0.25),
    BREAKER_STORM: (0.3, 0.7),
}


@dataclass(frozen=True)
class ChaosEvent:
    """One typed fault event on the schedule's virtual timeline.

    ``at`` is the fraction of the trace horizon at which the event
    lands (only kills are instantaneous; rate events describe hazard
    intensity over the whole run, with ``at`` kept for ordering and
    shrink bookkeeping). ``target`` is a shard id for kills, ``-1``
    otherwise. ``magnitude`` is the hazard contribution of rate events.
    """

    kind: str
    at: float
    target: int = -1
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigError(f"unknown chaos event kind {self.kind!r}")
        if not 0.0 <= self.at <= 1.0:
            raise ConfigError(f"event time must be in [0, 1], got {self.at!r}")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ConfigError(
                f"event magnitude must be in [0, 1], got {self.magnitude!r}"
            )

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at": self.at,
            "target": int(self.target),
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ChaosEvent":
        return cls(
            kind=str(data["kind"]),
            at=float(data["at"]),
            target=int(data.get("target", -1)),
            magnitude=float(data.get("magnitude", 0.0)),
        )


def _hazard(rates: Sequence[float]) -> float:
    """Independent-hazard combination of event magnitudes."""
    alive = 1.0
    for r in rates:
        alive *= 1.0 - r
    return 1.0 - alive


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded fault schedule plus the trace shape it runs against."""

    seed: int
    events: Tuple[ChaosEvent, ...] = ()
    duration_s: float = 0.16
    base_rate: float = 110.0
    spike_factor: float = 5.0
    shards: int = 3
    replicas_per_shard: int = 2
    queue_depth: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.duration_s <= 0 or self.base_rate <= 0:
            raise ConfigError("duration_s and base_rate must be positive")
        if self.shards < 2:
            raise ConfigError("chaos schedules need >= 2 shards")

    @property
    def event_count(self) -> int:
        return len(self.events)

    def with_events(self, events: Sequence[ChaosEvent]) -> "ChaosSchedule":
        """The same schedule with a different event tuple (shrink step)."""
        return replace(self, events=tuple(events))

    # ------------------------------------------------------------------
    def fault_plan(self) -> FaultPlan:
        """Compile the events onto a :class:`FaultPlan`.

        Shard kills become ``forced_shard_kills`` (first kill per target
        wins); each rate kind's magnitudes hazard-combine.
        """
        kills: Dict[int, float] = {}
        rates: Dict[str, List[float]] = {}
        for ev in self.events:
            if ev.kind == SHARD_KILL:
                target = ev.target % self.shards
                if target not in kills or ev.at < kills[target]:
                    kills[target] = ev.at
            else:
                rates.setdefault(ev.kind, []).append(ev.magnitude)
        return FaultPlan(
            seed=self.seed,
            hbm_outage_rate=_hazard(rates.get(HBM_OUTAGE, ())),
            hbm_stall_rate=_hazard(rates.get(HBM_STALL, ())),
            pe_lane_dropout_rate=_hazard(rates.get(LANE_DROPOUT, ())),
            launch_abort_rate=_hazard(
                list(rates.get(LAUNCH_ABORT, ()))
                + list(rates.get(BREAKER_STORM, ()))
            ),
            forced_shard_kills=tuple(sorted(kills.items())),
        )

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "seed": int(self.seed),
            "events": [ev.to_json() for ev in self.events],
            "duration_s": self.duration_s,
            "base_rate": self.base_rate,
            "spike_factor": self.spike_factor,
            "shards": int(self.shards),
            "replicas_per_shard": int(self.replicas_per_shard),
            "queue_depth": int(self.queue_depth),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ChaosSchedule":
        known = {
            "seed", "events", "duration_s", "base_rate", "spike_factor",
            "shards", "replicas_per_shard", "queue_depth",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown ChaosSchedule fields in JSON: {sorted(unknown)}"
            )
        return cls(
            seed=int(data["seed"]),
            events=tuple(
                ChaosEvent.from_json(ev) for ev in data.get("events", [])
            ),
            duration_s=float(data.get("duration_s", 0.16)),
            base_rate=float(data.get("base_rate", 110.0)),
            spike_factor=float(data.get("spike_factor", 5.0)),
            shards=int(data.get("shards", 3)),
            replicas_per_shard=int(data.get("replicas_per_shard", 2)),
            queue_depth=int(data.get("queue_depth", 32)),
        )

    def digest(self) -> str:
        """Content fingerprint of the schedule (stable across processes)."""
        from repro.artifacts import fingerprint_value

        return fingerprint_value(
            "chaos-schedule",
            self.seed,
            tuple(
                (ev.kind, ev.at, ev.target, ev.magnitude)
                for ev in self.events
            ),
            self.duration_s, self.base_rate, self.spike_factor,
            self.shards, self.replicas_per_shard, self.queue_depth,
        )


class ScheduleGenerator:
    """Seeded random point generator over the fault-schedule space.

    ``generate(i)`` is a pure function of ``(seed, i)`` — the search
    records only its seed and budget, and any schedule it visited can be
    regenerated exactly (the determinism the corpus and CI lean on).
    Kill events never target more than ``shards - 1`` distinct shards,
    so at least one routable shard always survives.
    """

    def __init__(
        self,
        seed: int,
        shards: int = 3,
        replicas_per_shard: int = 2,
        min_events: int = 2,
        max_events: int = 10,
        duration_s: float = 0.16,
        base_rate: float = 110.0,
    ) -> None:
        if not 1 <= min_events <= max_events:
            raise ConfigError("need 1 <= min_events <= max_events")
        self.seed = int(seed)
        self.shards = int(shards)
        self.replicas_per_shard = int(replicas_per_shard)
        self.min_events = int(min_events)
        self.max_events = int(max_events)
        self.duration_s = float(duration_s)
        self.base_rate = float(base_rate)

    def generate(self, index: int) -> ChaosSchedule:
        seed = derive_seed(self.seed, "chaos-schedule", index)
        rng = make_rng(seed)
        n = int(rng.integers(self.min_events, self.max_events + 1))
        events: List[ChaosEvent] = []
        kill_targets: set = set()
        for _ in range(n):
            kind = EVENT_KINDS[int(rng.integers(0, len(EVENT_KINDS)))]
            at = float(round(rng.random(), 6))
            if kind == SHARD_KILL:
                target = int(rng.integers(0, self.shards))
                candidates = kill_targets | {target}
                if len(candidates) >= self.shards:
                    # Killing every shard leaves traffic nowhere to go;
                    # degrade the draw to an HBM outage instead.
                    kind = HBM_OUTAGE
                else:
                    kill_targets.add(target)
                    events.append(ChaosEvent(SHARD_KILL, at, target=target))
                    continue
            lo, hi = _MAGNITUDE_RANGES[kind]
            magnitude = float(round(lo + rng.random() * (hi - lo), 6))
            events.append(ChaosEvent(kind, at, magnitude=magnitude))
        events.sort(key=lambda ev: (ev.at, ev.kind, ev.target))
        return ChaosSchedule(
            seed=seed,
            events=tuple(events),
            duration_s=self.duration_s,
            base_rate=self.base_rate,
            shards=self.shards,
            replicas_per_shard=self.replicas_per_shard,
        )

    def sample(self, count: int, start: int = 0) -> List[ChaosSchedule]:
        return [self.generate(start + i) for i in range(count)]
