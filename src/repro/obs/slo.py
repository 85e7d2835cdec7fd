"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOObjective` states a target over the serving event stream —
"99% of requests hit their deadline", "99% finish under 30 ms", "99.9%
do not error" — and :class:`SLOMonitor` evaluates a set of them over a
:class:`~repro.serving.fleet.FleetResult` (a fleet replay, one-shard
single-node runs included) in completion order, entirely in the trace's
*virtual* time.

Alerting follows the multi-window multi-burn-rate recipe from the Google
SRE workbook: the **burn rate** is the windowed bad-event rate divided by
the error budget (``1 - objective``), and a :class:`BurnWindow` pairs a
long window (smooths noise) with a short window (confirms the problem is
still happening); the alert fires only while *both* exceed the window's
burn threshold, and clears when either drops below. A burn rate of 1
means the budget is being consumed exactly as fast as the objective
allows; 14.4 means a 30-day budget would be gone in ~2 days.

Because the fleet's event stream is seeded-deterministic, so is the
alert log: :meth:`SLOReport.digest` hashes every alert transition and
per-objective tally, and replaying the same seed reproduces it
bit-identically — the property CI asserts.

Window widths are in virtual seconds and default to fractions of the
horizon actually observed (synthetic traces are sub-second), so the
defaults work unchanged on any trace length; pass explicit windows to
pin them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

__all__ = [
    "SLOObjective",
    "BurnWindow",
    "SLOMonitor",
    "SLOReport",
    "default_objectives",
    "KIND_DEADLINE",
    "KIND_LATENCY",
    "KIND_ERROR",
]

KIND_DEADLINE = "deadline"
KIND_LATENCY = "latency"
KIND_ERROR = "error"

_KINDS = (KIND_DEADLINE, KIND_LATENCY, KIND_ERROR)


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective over the serving event stream.

    Parameters
    ----------
    name:
        Stable identifier (appears in alerts and the report).
    kind:
        ``"deadline"`` — good means served with the deadline hit;
        ``"latency"`` — good means latency ≤ ``threshold_s``;
        ``"error"`` — good means the request did not fail outright
        (rejections/sheds are intentional load management, not errors).
    objective:
        Target good fraction in (0, 1), e.g. ``0.99``.
    threshold_s:
        Latency bound; required for (and only for) the latency kind.
    """

    name: str
    kind: str
    objective: float
    threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"objective {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.objective}"
            )
        if (self.kind == KIND_LATENCY) != (self.threshold_s is not None):
            raise ValueError(
                f"objective {self.name!r}: threshold_s is required for "
                "the latency kind and meaningless otherwise"
            )

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnWindow:
    """A long/short window pair with its firing burn-rate threshold.

    Widths are *fractions of the observed horizon* when ``relative``
    (the default) — a ``long=0.25`` window over a 0.4 s trace spans
    0.1 s — or absolute virtual seconds otherwise.
    """

    long: float
    short: float
    burn: float
    relative: bool = True

    def __post_init__(self) -> None:
        if self.long <= 0 or self.short <= 0 or self.short > self.long:
            raise ValueError(
                f"window needs 0 < short <= long, got "
                f"short={self.short} long={self.long}"
            )
        if self.burn <= 0:
            raise ValueError(f"burn threshold must be positive: {self.burn}")

    def label(self) -> str:
        kind = "rel" if self.relative else "s"
        return f"{self.long:g}/{self.short:g}{kind}@{self.burn:g}x"


#: SRE-workbook-shaped defaults, scaled to sub-second synthetic traces:
#: a fast pair (page: high burn over short windows) and a slow pair
#: (ticket: moderate burn sustained over long windows).
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(long=0.10, short=0.0125, burn=14.4),
    BurnWindow(long=0.25, short=0.05, burn=6.0),
)


def default_objectives(
    deadline_target: float = 0.90,
    latency_threshold_s: float = 0.05,
    latency_target: float = 0.99,
    error_target: float = 0.999,
) -> Tuple[SLOObjective, ...]:
    """The stock objective set used by the CLI and benchmarks."""
    return (
        SLOObjective("deadline-hit", KIND_DEADLINE, deadline_target),
        SLOObjective("latency-p99", KIND_LATENCY, latency_target,
                     threshold_s=latency_threshold_s),
        SLOObjective("availability", KIND_ERROR, error_target),
    )


@dataclass
class SLOReport:
    """Evaluation outcome: per-objective tallies plus the alert log."""

    horizon_s: float
    objectives: Dict[str, Dict[str, object]]
    #: (time_s, objective, window_label, state, burn_long, burn_short)
    #: — one row per fire/clear transition, in virtual-time order.
    alerts: List[Tuple[float, str, str, str, float, float]]

    @property
    def ok(self) -> bool:
        """True when every objective met its target over the horizon."""
        return all(o["met"] for o in self.objectives.values())

    @property
    def fired(self) -> List[Tuple[float, str, str, str, float, float]]:
        return [a for a in self.alerts if a[3] == "fire"]

    def digest(self) -> str:
        """Stable hexdigest of the full report (replay witness)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(round(self.horizon_s, 12)).encode())
        for name in sorted(self.objectives):
            h.update(repr((name, sorted(self.objectives[name].items(),
                                        key=lambda kv: kv[0]))).encode())
        for alert in self.alerts:
            h.update(repr(alert).encode())
        return h.hexdigest()

    def as_table(self) -> str:
        rows = []
        for name in sorted(self.objectives):
            o = self.objectives[name]
            rows.append([
                name, o["kind"], f"{o['objective']:g}",
                f"{o['achieved']:.6f}", o["good"], o["bad"],
                f"{o['budget_consumed']:.3f}",
                "met" if o["met"] else "MISSED",
            ])
        table = format_table(
            ["objective", "kind", "target", "achieved", "good", "bad",
             "budget_used", "status"],
            rows,
        )
        if not self.alerts:
            return table + "\n(no burn-rate alerts)"
        alert_rows = [
            [f"{t:.6f}", name, window, state,
             f"{burn_l:.2f}", f"{burn_s:.2f}"]
            for t, name, window, state, burn_l, burn_s in self.alerts
        ]
        return table + "\n" + format_table(
            ["time_s", "objective", "window", "state", "burn_long",
             "burn_short"],
            alert_rows,
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "horizon_s": self.horizon_s,
                "ok": self.ok,
                "digest": self.digest(),
                "objectives": self.objectives,
                "alerts": [list(a) for a in self.alerts],
            },
            indent=indent, sort_keys=True,
        )


class SLOMonitor:
    """Evaluates objectives over a result's virtual-time event stream."""

    def __init__(
        self,
        objectives: Sequence[SLOObjective] = (),
        windows: Sequence[BurnWindow] = DEFAULT_WINDOWS,
    ) -> None:
        self.objectives = tuple(objectives) or default_objectives()
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.windows = tuple(windows)
        if not self.windows:
            raise ValueError("at least one burn window is required")

    # ------------------------------------------------------------------
    @staticmethod
    def _is_good(objective: SLOObjective, resp) -> bool:
        if objective.kind == KIND_DEADLINE:
            return resp.status == "ok" and bool(resp.deadline_hit)
        if objective.kind == KIND_LATENCY:
            return (
                resp.latency_s is not None
                and resp.latency_s <= objective.threshold_s
            )
        # error kind: hard failures burn budget; rejections/sheds are
        # deliberate load management and do not.
        return resp.status != "failed"

    @staticmethod
    def _event_time(resp) -> float:
        # Rejected/shed responses never finish; they enter the stream at
        # arrival (the moment the outcome was decided).
        return resp.finish_s if resp.finish_s is not None else resp.arrival_s

    def evaluate(self, result) -> SLOReport:
        """Score every objective and replay the burn-rate alert rules.

        ``result`` is a :class:`~repro.serving.fleet.FleetResult`.
        Events are processed in ``(time, request_id)`` order, so
        evaluation is deterministic for a deterministic trace.
        """
        stream = sorted(
            result.responses,
            key=lambda r: (self._event_time(r), r.request_id),
        )
        horizon = self._event_time(stream[-1]) if stream else 0.0
        report_objs: Dict[str, Dict[str, object]] = {}
        alerts: List[Tuple[float, str, str, str, float, float]] = []

        for objective in self.objectives:
            events: List[Tuple[float, bool]] = [
                (self._event_time(r), self._is_good(objective, r))
                for r in stream
            ]
            good = sum(1 for _, g in events if g)
            bad = len(events) - good
            achieved = good / len(events) if events else 1.0
            budget_consumed = (
                (1.0 - achieved) / objective.budget if events else 0.0
            )
            report_objs[objective.name] = {
                "kind": objective.kind,
                "objective": objective.objective,
                "threshold_s": objective.threshold_s,
                "good": good,
                "bad": bad,
                "achieved": round(achieved, 12),
                "budget_consumed": round(budget_consumed, 12),
                "met": achieved >= objective.objective,
            }
            for window in self.windows:
                long_s = (
                    window.long * horizon if window.relative else window.long
                )
                short_s = (
                    window.short * horizon if window.relative
                    else window.short
                )
                if long_s <= 0.0:
                    continue
                firing = False
                for i, (t, _) in enumerate(events):
                    burn_l = self._burn(events, i, t, long_s, objective)
                    burn_s = self._burn(events, i, t, short_s, objective)
                    should_fire = (
                        burn_l >= window.burn and burn_s >= window.burn
                    )
                    if should_fire != firing:
                        firing = should_fire
                        alerts.append((
                            round(t, 12), objective.name, window.label(),
                            "fire" if firing else "clear",
                            round(burn_l, 12), round(burn_s, 12),
                        ))
                if firing:
                    alerts.append((
                        round(horizon, 12), objective.name, window.label(),
                        "end", 0.0, 0.0,
                    ))

        alerts.sort(key=lambda a: (a[0], a[1], a[2], a[3]))
        return SLOReport(
            horizon_s=round(horizon, 12),
            objectives=report_objs,
            alerts=alerts,
        )

    @staticmethod
    def _burn(events: List[Tuple[float, bool]], upto: int, now: float,
              width: float, objective: SLOObjective) -> float:
        """Burn rate over ``[now - width, now]`` ending at event ``upto``."""
        lo = now - width
        total = 0
        bad = 0
        # Walk backwards from the current event; the window is short
        # relative to the stream, so this stays near-linear overall.
        for j in range(upto, -1, -1):
            t, good = events[j]
            if t < lo:
                break
            total += 1
            if not good:
                bad += 1
        if total == 0:
            return 0.0
        return (bad / total) / objective.budget


def evaluate(result, objectives: Sequence[SLOObjective] = (),
             windows: Sequence[BurnWindow] = DEFAULT_WINDOWS) -> SLOReport:
    """One-call convenience: ``SLOMonitor(objectives, windows).evaluate``."""
    return SLOMonitor(objectives, windows).evaluate(result)
