"""Chaos probe: the fleet's decisions, kept for invariant checking.

The fleet's event loop reports each decision once, through its
``record``: the decision-log row ``(t, rid, kind, info)`` plus the
objects the loop holds, which :data:`DECISION_FACTS` names per kind. An
installed probe keeps every decision under its log name, in order: the
exact facts the chaos invariants (:mod:`repro.chaos.invariants`) judge
a run by. Exactly-once counts each request's ``complete`` decisions;
breaker safety reads every launch on a replica (each ``dispatch`` and
``fault``, and the twin of each ``hedge``) with its breaker state.

Like every ``repro.obs`` observer it is opt-in and observational only:
the default :data:`NULL_PROBE` is handed no decision, and an installed
probe never changes the observed run's outputs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ChaosProbe",
    "DECISION_FACTS",
    "NullProbe",
    "NULL_PROBE",
    "Decision",
    "DecisionSink",
]

#: What each fleet decision hands its observers after its log row, in
#: order (kinds not listed hand over nothing). ``breaker`` is the launch
#: replica's breaker state read before the launch, ``error`` the fault's
#: exception class name, ``role`` the half of a hedged pair that
#: resolved, ``orphans`` the killed shard's queued ``(request, epoch)``s.
DECISION_FACTS: Dict[str, Tuple[str, ...]] = {
    "rejected": ("request",),
    "shed": ("request",),
    "failed": ("request",),
    "admit": ("request", "shard", "depth", "routing"),
    "degrade": ("response",),
    "dispatch": ("response", "breaker"),
    "fault": ("shard", "replica", "breaker", "error"),
    "hedge": ("response", "breaker"),
    "stale": ("response",),
    "hedge_cancel": ("response", "role"),
    "duplicate": ("response",),
    "complete": ("response",),
    "redeal": ("shard", "epoch"),
    "requeue": ("shard", "epoch"),
    "void": ("shard", "epoch"),
    "shard_kill": ("shard", "orphans"),
    "scale_down": ("shard",),
}

#: One kept decision: ``(kind, t, rid, info, facts)``, ``t`` in virtual
#: seconds as the loop had it (the log row rounds it).
Decision = Tuple[str, float, int, str, tuple]

#: What a fleet replay calls once per decision.
DecisionSink = Callable[[float, int, str, str, tuple], None]


class ChaosProbe:
    """Keeps every fleet decision it is handed, in order."""

    enabled = True

    def __init__(self) -> None:
        self.decisions: List[Decision] = []

    def sink(self) -> DecisionSink:
        """The callable one replay hands its decisions to."""
        return self.record

    def record(self, now: float, rid: int, kind: str, info: str,
               facts: tuple) -> None:
        self.decisions.append((kind, now, rid, info, facts))

    def of(self, kind: str) -> List[Dict[str, object]]:
        """Every decision of ``kind`` as a dict of ``t``, ``rid``,
        ``info`` and its named facts."""
        names = DECISION_FACTS.get(kind, ())
        return [
            {"t": now, "rid": rid, "info": info, **dict(zip(names, facts))}
            for k, now, rid, info, facts in self.decisions
            if k == kind
        ]

    def launches(self) -> List[Tuple[int, int, int, Optional[str]]]:
        """``(rid, shard, replica, breaker)`` of every launch on a
        replica, in decision order: each ``dispatch`` and ``fault``, and
        the twin of each ``hedge``."""
        out = []
        for kind, _, rid, _, facts in self.decisions:
            if kind == "fault":
                shard, replica, breaker, _ = facts
            elif kind == "dispatch" or kind == "hedge":
                resp, breaker = facts
                shard, replica = resp.shard, resp.replica
            else:
                continue
            if replica is not None:
                out.append((rid, shard, replica, breaker))
        return out


class NullProbe(ChaosProbe):
    """The default probe: it keeps no decision, so every reading is empty."""

    enabled = False

    def record(self, now: float, rid: int, kind: str, info: str,
               facts: tuple) -> None:
        pass


NULL_PROBE = NullProbe()
