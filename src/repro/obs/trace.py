"""Span tracing with Chrome ``trace_event`` export.

The tracer records two tracks of paired begin/end events:

- the **host** track (``pid=1``): wall-clock spans around Python-side work
  (encoding, sweeps, factorization iterations), stamped from
  ``time.perf_counter`` in microseconds;
- the **sim** track (``pid=2``): cycle-denominated spans for accelerator
  launches. :meth:`Tracer.add_launch` lays the launch and its phase
  children (stream/compute/stall/drain/recovery) back-to-back on a cycle
  cursor, so the per-phase bars in Perfetto sum exactly to each launch's
  ``SimReport.cycles``.

Export is the standard JSON object format (``{"traceEvents": [...]}``)
loadable in ``chrome://tracing`` / Perfetto; :func:`validate_chrome_trace`
checks the structural invariants (begin/end pairing, per-track monotonic
timestamps) that CI asserts. :meth:`Tracer.summary` renders a
flamegraph-style text rollup via :func:`repro.analysis.tables.format_table`
for terminals without a trace viewer.

When tracing is off the active tracer is :data:`NULL_TRACER`, whose
``span`` returns a cached no-op context manager — instrumented code pays
one attribute check.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

from repro.analysis.tables import format_table

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_chrome_trace",
    "HOST_PID",
    "SIM_PID",
]

#: Synthetic process ids separating the wall-clock and cycle-time tracks.
HOST_PID = 1
SIM_PID = 2

#: Phase display order inside a launch span.
PHASE_ORDER = ("stream", "compute", "stall", "drain", "recovery")


class Tracer:
    """Collects paired begin/end events for Chrome-trace export.

    Parameters
    ----------
    micro:
        Opt-in firehose flag. Instrumentation sites that would emit one
        event per CISS entry / PE record check ``tracer.micro`` before
        doing so; the default keeps traces at launch/tile granularity.
    """

    enabled = True

    def __init__(self, micro: bool = False) -> None:
        self.micro = bool(micro)
        self.events: List[dict] = []
        self._t0 = time.perf_counter()
        self._sim_cursor = 0  # cycles; advances once per launch
        self._bound: Dict[str, object] = {}

    @contextmanager
    def bind(self, **context: object) -> Iterator[None]:
        """Attach ambient args to every sim-track event in the block.

        The fleet wraps each shard's ladder execution in
        ``tracer().bind(shard=sid)`` so micro-mode instants and launch
        spans emitted deep inside the simulator carry the owning shard id
        — per-shard flamegraphs then separate cleanly in the summary and
        in Perfetto, instead of interleaving on one anonymous track.
        Nested binds merge (inner wins on key collision); explicit event
        args always win over bound context.
        """
        previous = self._bound
        self._bound = {**previous, **context}
        try:
            yield
        finally:
            self._bound = previous

    def _merge_args(
        self, args: Optional[Mapping[str, object]]
    ) -> Optional[Dict[str, object]]:
        if not self._bound:
            return dict(args) if args else None
        merged = dict(self._bound)
        if args:
            merged.update(args)
        return merged

    # ------------------------------------------------------------------
    # host (wall-clock) track
    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def begin(self, name: str, cat: str = "host",
              args: Optional[Mapping[str, object]] = None) -> None:
        event = {"name": name, "cat": cat, "ph": "B",
                 "ts": self._now_us(), "pid": HOST_PID, "tid": 1}
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def end(self, name: str, cat: str = "host") -> None:
        self.events.append({"name": name, "cat": cat, "ph": "E",
                            "ts": self._now_us(), "pid": HOST_PID, "tid": 1})

    @contextmanager
    def span(self, name: str, cat: str = "host",
             args: Optional[Mapping[str, object]] = None) -> Iterator[None]:
        """A wall-clock begin/end pair around a block of host work."""
        self.begin(name, cat, args)
        try:
            yield
        finally:
            self.end(name, cat)

    # ------------------------------------------------------------------
    # sim (cycle) track
    # ------------------------------------------------------------------
    def add_launch(self, name: str, cycles: int,
                   phases: Optional[Mapping[str, int]] = None,
                   args: Optional[Mapping[str, object]] = None) -> None:
        """Append one accelerator launch to the cycle track.

        The launch span covers ``cycles`` cycles starting at the current
        cursor; phase children are laid back-to-back inside it in
        :data:`PHASE_ORDER` (zero-cycle phases are skipped). The cursor
        then advances past the launch, keeping the track monotonic.
        """
        start = self._sim_cursor
        launch = {"name": name, "cat": "sim.launch", "ph": "B",
                  "ts": float(start), "pid": SIM_PID, "tid": 1}
        merged = self._merge_args(args)
        if merged:
            launch["args"] = merged
        self.events.append(launch)
        if phases:
            at = start
            ordered = [p for p in PHASE_ORDER if p in phases]
            ordered += [p for p in sorted(phases) if p not in PHASE_ORDER]
            for phase in ordered:
                width = int(phases[phase])
                if width <= 0:
                    continue
                self.events.append(
                    {"name": phase, "cat": "sim.phase", "ph": "B",
                     "ts": float(at), "pid": SIM_PID, "tid": 1}
                )
                at += width
                self.events.append(
                    {"name": phase, "cat": "sim.phase", "ph": "E",
                     "ts": float(at), "pid": SIM_PID, "tid": 1}
                )
        self._sim_cursor = start + int(cycles)
        self.events.append({"name": name, "cat": "sim.launch", "ph": "E",
                            "ts": float(self._sim_cursor), "pid": SIM_PID,
                            "tid": 1})

    def sim_instant(self, name: str, at_cycle: float,
                    args: Optional[Mapping[str, object]] = None) -> None:
        """A point event on the cycle track (cursor-relative)."""
        event = {"name": name, "cat": "sim.event", "ph": "i", "s": "t",
                 "ts": float(self._sim_cursor + at_cycle), "pid": SIM_PID,
                 "tid": 1}
        merged = self._merge_args(args)
        if merged:
            event["args"] = merged
        self.events.append(event)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {
                "tracks": {str(HOST_PID): "host (us)", str(SIM_PID): "sim (cycles)"}
            },
        }

    def export_chrome(self, path: Optional[str] = None) -> dict:
        """The Chrome-trace dict; also written to ``path`` when given."""
        trace = self.chrome_trace()
        if path is not None:
            with open(path, "w") as fh:
                json.dump(trace, fh, indent=1)
        return trace

    def summary(self) -> str:
        """Flamegraph-style text rollup: total/avg per (category, name).

        Host rows aggregate microseconds, sim rows aggregate cycles; the
        unit column says which. Sim spans carrying a ``shard`` arg (set
        by :meth:`bind` under the fleet) roll up per shard, so one fleet
        trace yields cleanly separated per-shard flamegraphs.
        """
        totals: Dict[tuple, List[float]] = {}
        stacks: Dict[tuple, List[dict]] = {}
        for event in self.events:
            track = (event["pid"], event["tid"])
            if event["ph"] == "B":
                stacks.setdefault(track, []).append(event)
            elif event["ph"] == "E":
                stack = stacks.get(track)
                if not stack:
                    continue
                begin = stack.pop()
                shard = (begin.get("args") or {}).get("shard")
                key = (event.get("cat", ""), begin["name"], shard)
                bucket = totals.setdefault(key, [0, 0.0])
                bucket[0] += 1
                bucket[1] += event["ts"] - begin["ts"]
        if not totals:
            return "(no spans recorded)"
        sharded = any(key[2] is not None for key in totals)
        rows = []
        for (cat, name, shard), (count, total) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        ):
            unit = "cycles" if cat.startswith("sim") else "us"
            row = [name, cat, count, f"{total:,.0f}",
                   f"{total / count:,.1f}", unit]
            if sharded:
                row.insert(2, "-" if shard is None else str(shard))
            rows.append(row)
        headers = ["span", "category", "count", "total", "avg", "unit"]
        if sharded:
            headers.insert(2, "shard")
        return format_table(headers, rows)


def validate_chrome_trace(trace: Mapping[str, object]) -> int:
    """Structurally validate a Chrome-trace dict; the CI schema check.

    Asserts, per ``(pid, tid)`` track: 'E' events close the matching 'B'
    (same name, stack discipline), span timestamps are monotonically
    non-decreasing, and every span is closed by the end of the trace.
    Instant/counter events ('i'/'C') may be back-dated — viewers sort
    them — so only 'B'/'E' participate in the monotonicity check.
    Complete events ('X', used by the request tracer where hedged spans
    legitimately overlap) must carry a non-negative numeric ``dur`` and
    are exempt from stack discipline. Returns the number of events
    checked; raises ``ValueError`` on the first violation.
    """
    if not isinstance(trace, Mapping) or "traceEvents" not in trace:
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    stacks: Dict[tuple, List[dict]] = {}
    last_ts: Dict[tuple, float] = {}
    for i, event in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {i} missing field {field!r}: {event}")
        track = (event["pid"], event["tid"])
        ts = float(event["ts"])
        if event["ph"] in ("B", "E"):
            if ts < last_ts.get(track, float("-inf")):
                raise ValueError(
                    f"event {i} ({event['name']!r}): timestamp {ts} goes "
                    f"backwards on track {track} (last {last_ts[track]})"
                )
            last_ts[track] = ts
        if event["ph"] == "B":
            stacks.setdefault(track, []).append(event)
        elif event["ph"] == "E":
            stack = stacks.get(track)
            if not stack:
                raise ValueError(
                    f"event {i} ({event['name']!r}): 'E' with no open span "
                    f"on track {track}"
                )
            begin = stack.pop()
            if begin["name"] != event["name"]:
                raise ValueError(
                    f"event {i}: 'E' for {event['name']!r} closes span "
                    f"{begin['name']!r} (interleaved, not nested)"
                )
        elif event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {i} ({event['name']!r}): 'X' requires a "
                    f"non-negative numeric 'dur', got {dur!r}"
                )
        elif event["ph"] not in ("i", "C", "M"):
            raise ValueError(f"event {i}: unknown phase {event['ph']!r}")
    for track, stack in stacks.items():
        if stack:
            names = [e["name"] for e in stack]
            raise ValueError(f"unclosed spans on track {track}: {names}")
    return len(events)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span`` hands back one cached no-op context."""

    enabled = False
    micro = False

    def span(self, name: str, cat: str = "host",
             args: Optional[Mapping[str, object]] = None) -> _NullSpan:
        return _NULL_SPAN

    def bind(self, **context: object) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, cat: str = "host",
              args: Optional[Mapping[str, object]] = None) -> None:
        pass

    def end(self, name: str, cat: str = "host") -> None:
        pass

    def add_launch(self, name: str, cycles: int,
                   phases: Optional[Mapping[str, int]] = None,
                   args: Optional[Mapping[str, object]] = None) -> None:
        pass

    def sim_instant(self, name: str, at_cycle: float,
                    args: Optional[Mapping[str, object]] = None) -> None:
        pass

    def chrome_trace(self) -> dict:
        return {"traceEvents": []}

    def export_chrome(self, path: Optional[str] = None) -> dict:
        return {"traceEvents": []}

    def summary(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()
