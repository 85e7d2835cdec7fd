"""The serving stack's guarantees, as composable invariant checkers.

Each checker is a pure function over a :class:`ChaosObservation` — the
complete record of one executed schedule (fleet results from two seeded
runs, the fleet's decisions as the probe kept them, trace
reconciliation, the checkpoint-equivalence leg, degraded-tier error
measurements) — and returns the list of :class:`Violation`\\ s it
found. The runner (:mod:`repro.chaos.search`) builds observations; this
module only judges them, which is what makes an intentionally-broken
system (mutation testing) detectable: the checkers never trust the run
that produced the data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ChaosObservation",
    "Violation",
    "DEFAULT_INVARIANTS",
    "check_all",
]

#: Slack on the calibrated analytic error bound (pure float noise).
_BOUND_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to reproduce it."""

    invariant: str
    summary: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "summary": self.summary,
            "detail": dict(self.detail),
        }


@dataclass
class ChaosObservation:
    """Everything one executed schedule produced, ready for judgment.

    ``digest``/``replay_digest`` fingerprint the decision log + response
    rows of two independent runs from the same seed. ``probe`` holds run
    1's decisions (:class:`repro.obs.probe.ChaosProbe`). ``checkpoint_equal`` is the verdict of
    the straight-vs-resumed CP-ALS leg under the schedule's
    accelerator-level faults (``None`` when the leg was skipped — e.g.
    retries exhausted, which is a liveness matter, not a correctness
    violation). ``analytic_errors`` holds ``(request_id, relative
    cycle error)`` for every degraded analytic response, measured
    against a ground-truth cycle simulation of the same (kernel,
    workload).
    """

    schedule: object
    result: object
    digest: str
    replay_digest: str
    probe: object
    reconcile_error: Optional[str] = None
    checkpoint_equal: Optional[bool] = None
    checkpoint_detail: str = ""
    error_bound: float = 0.0
    analytic_errors: List[Tuple[int, float]] = field(default_factory=list)


Checker = Callable[[ChaosObservation], List[Violation]]


def check_exactly_once(obs: ChaosObservation) -> List[Violation]:
    """No admitted request is ever committed twice.

    Cross-checks the fleet's own accounting (``duplicate_completions``)
    against the ``complete`` decisions the probe kept — a bug that
    double-commits *and* forgets to count it still trips the probe-side
    check.
    """
    out: List[Violation] = []
    dupes = obs.result.counters.get("duplicate_completions", 0)
    if dupes:
        out.append(Violation(
            "exactly_once",
            f"{dupes} duplicate completion(s) committed",
            {"duplicate_completions": dupes},
        ))
    commits = Counter(ev["rid"] for ev in obs.probe.of("complete"))
    doubled = {rid: n for rid, n in commits.items() if n > 1}
    if doubled:
        out.append(Violation(
            "exactly_once",
            f"{len(doubled)} request(s) observed committing more than once",
            {"request_ids": sorted(doubled)},
        ))
    return out


def check_no_lost_admitted_work(obs: ChaosObservation) -> List[Violation]:
    """Every admitted request gets exactly one explicit answer.

    Served, shed-by-eviction, or failed-with-reason — never silently
    dropped. The counter identity (admitted = served + evicted +
    failover overflow) catches a request that fell through a failover
    crack even if the lost-id bookkeeping itself were broken.
    """
    out: List[Violation] = []
    lost = list(obs.result.lost_request_ids)
    if lost:
        out.append(Violation(
            "no_lost_admitted_work",
            f"{len(lost)} admitted request(s) lost",
            {"request_ids": lost[:32]},
        ))
    c = obs.result.counters
    accounted = (
        c.get("served", 0) + c.get("evicted", 0)
        + c.get("failover_overflow", 0)
    )
    if c.get("admitted", 0) != accounted:
        out.append(Violation(
            "no_lost_admitted_work",
            f"admitted {c.get('admitted', 0)} != served+evicted+overflow "
            f"{accounted}",
            {"counters": {k: c.get(k, 0) for k in (
                "admitted", "served", "evicted", "failover_overflow")}},
        ))
    return out


def check_breaker_safety(obs: ChaosObservation) -> List[Violation]:
    """An open breaker never receives a launch.

    Every launch on a replica (``dispatch``, ``fault`` and each
    ``hedge`` twin) carries its breaker state *at launch time*;
    ``allow()`` legitimately moves open -> half_open before a probe
    launch, so any launch observed against a still-open breaker means
    the admission path was bypassed.
    """
    bad = [
        launch for launch in obs.probe.launches() if launch[3] == "open"
    ]
    if not bad:
        return []
    return [Violation(
        "breaker_safety",
        f"{len(bad)} launch(es) landed on an open breaker",
        {"launches": bad[:16]},
    )]


def check_checkpoint_resume(obs: ChaosObservation) -> List[Violation]:
    """A resumed factorization is bit-equal to a straight-through one."""
    if obs.checkpoint_equal is None or obs.checkpoint_equal:
        return []
    return [Violation(
        "checkpoint_resume",
        "resumed CP-ALS diverged from the straight-through run",
        {"detail": obs.checkpoint_detail},
    )]


def check_determinism(obs: ChaosObservation) -> List[Violation]:
    """Same seed twice => same decision log and response rows."""
    if obs.digest == obs.replay_digest:
        return []
    return [Violation(
        "determinism",
        "replay from the recorded seed diverged",
        {"digest": obs.digest, "replay_digest": obs.replay_digest},
    )]


def check_trace_reconciliation(obs: ChaosObservation) -> List[Violation]:
    """The request-span tree reconciles with every served latency."""
    if obs.reconcile_error is None:
        return []
    return [Violation(
        "trace_reconciliation",
        "RequestTracer.reconcile rejected the run",
        {"error": obs.reconcile_error},
    )]


def check_error_bound(obs: ChaosObservation) -> List[Violation]:
    """Degraded analytic answers honor the calibrated error bound."""
    over = [
        (rid, err) for rid, err in obs.analytic_errors
        if err > obs.error_bound + _BOUND_EPS
    ]
    if not over:
        return []
    worst = max(err for _, err in over)
    return [Violation(
        "error_bound",
        f"{len(over)} analytic response(s) exceeded the calibrated "
        f"bound {obs.error_bound:.4f} (worst {worst:.4f})",
        {"over": [(rid, err) for rid, err in over[:16]],
         "bound": obs.error_bound},
    )]


#: Checker registry, in report order. Every search run checks all of
#: these on every schedule.
DEFAULT_INVARIANTS: Dict[str, Checker] = {
    "exactly_once": check_exactly_once,
    "no_lost_admitted_work": check_no_lost_admitted_work,
    "breaker_safety": check_breaker_safety,
    "checkpoint_resume": check_checkpoint_resume,
    "determinism": check_determinism,
    "trace_reconciliation": check_trace_reconciliation,
    "error_bound": check_error_bound,
}


def check_all(
    obs: ChaosObservation,
    invariants: Optional[Dict[str, Checker]] = None,
) -> List[Violation]:
    """Run every checker; the concatenated violations (empty = clean)."""
    out: List[Violation] = []
    for checker in (invariants or DEFAULT_INVARIANTS).values():
        out.extend(checker(obs))
    return out
