"""Per-request causal tracing across the serving fleet.

The :mod:`repro.obs.trace` tracer answers "where do cycles go inside one
launch"; this module answers the fleet-scale question — "what happened to
request 1742, on which shard, and why was it slow". A
:class:`RequestTracer` assigns every request a deterministic
``trace_id`` (derived from the tracer seed and the request id, never from
the host clock) and records a tree of spans in *virtual* time as the
request moves through the fleet:

::

    request #1742 (trace 5f0c...)
    ├─ admit            t=0.10312         shard=2 depth=3
    ├─ queue            t=0.10312-0.10494 shard=2 epoch=0
    └─ service          t=0.10494-0.11221 tier=full shard=2 replica=0

The fleet does not build these trees itself. Each of its decisions
reaches the tracer once, as the decision-log row plus the objects the
loop holds (:data:`repro.obs.probe.DECISION_FACTS`), and a per-replay
fold turns them into spans: the root opens at the request's first
decision and starts at ``arrival_s``, a queue span runs from each admit
or requeue to the service start, and a service span covers each launch
window (an analytic answer opens its span on ``degrade``).

Spans carry ``(trace_id, span_id, parent_id)`` like any distributed
tracer, but timestamps come from the fleet's deterministic event loop —
so the same seed always produces the identical span tree, and the root
span of every served request covers exactly ``arrival_s → finish_s``:
:meth:`RequestTracer.reconcile` checks each root against the
:class:`~repro.serving.fleet.FleetResult` response bit-for-bit.

Failover is first-class: a shard kill ends the victim's ``service`` span
with ``voided=True``, the re-deal shows up as a ``redeal`` event plus a
fresh ``queue`` span at the bumped epoch, and the dead shard's stale
completion (discarded by the at-most-once check) lands as a
``stale_completion`` event on the same trace — one causally-linked tree
per request, kills included.

Export is Chrome ``trace_event`` "X" (complete) events — one track per
request — loadable next to the cycle-track trace in Perfetto; the
:func:`repro.obs.trace.validate_chrome_trace` schema check accepts them.

When request tracing is off the active tracer is
:data:`NULL_REQUEST_TRACER`: the fleet hands it no decision, and its
:meth:`~NullRequestTracer.activate` is one shared no-op context.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.tables import format_table
from repro.obs.probe import DecisionSink

__all__ = [
    "Span",
    "RequestTracer",
    "NullRequestTracer",
    "NULL_REQUEST_TRACER",
    "REQUEST_PID",
    "current_context",
]

#: Synthetic Chrome-trace process id for the request track (the span
#: tracer uses 1=host and 2=sim; requests get their own lane).
REQUEST_PID = 3

#: Module-level active-context stack: ``(trace_id, span_id)`` pairs
#: pushed by :meth:`RequestTracer.activate`. Lives at module level (not
#: on the tracer) so :mod:`repro.obs.logs` can read it without holding a
#: tracer reference, and so a swapped-out tracer cannot leak contexts.
_ACTIVE: List[Tuple[str, int]] = []


def current_context() -> Optional[Tuple[str, int]]:
    """The innermost active ``(trace_id, span_id)``, or None.

    JSON-lines log records stamp this onto every message emitted while a
    request span is active, so fleet logs join against request traces.
    """
    return _ACTIVE[-1] if _ACTIVE else None


@dataclass
class Span:
    """One node of a request's span tree (virtual-time)."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: Optional[float] = None
    kind: str = "span"  # "span" | "event"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def row(self) -> Tuple:
        """Deterministic flat tuple (digest / comparison input)."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.kind,
            round(self.start_s, 12),
            None if self.end_s is None else round(self.end_s, 12),
            tuple(sorted((k, str(v)) for k, v in self.attrs.items())),
        )


class _Trace:
    """All spans of one request, in creation order."""

    __slots__ = ("trace_id", "request_id", "spans", "_next_id")

    def __init__(self, trace_id: str, request_id: int) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.spans: List[Span] = []
        self._next_id = 1

    def add(self, name: str, start_s: float, parent_id: Optional[int],
            kind: str, attrs: Optional[Mapping[str, object]]) -> Span:
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            start_s=float(start_s),
            kind=kind,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    @property
    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None and span.kind == "span":
                return span
        return None


class RequestTracer:
    """Collects per-request span trees in deterministic virtual time.

    Parameters
    ----------
    seed:
        Folded into every ``trace_id`` so distinct replays (distinct
        seeds) produce globally distinct but individually deterministic
        trace ids.
    """

    enabled = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._traces: Dict[int, _Trace] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def trace_id(self, request_id: int) -> str:
        """Deterministic 16-hex-digit trace id for one request."""
        digest = hashlib.blake2b(
            f"reqtrace:{self.seed}:{request_id}".encode(), digest_size=8
        )
        return digest.hexdigest()

    def _trace(self, request_id: int) -> _Trace:
        trace = self._traces.get(request_id)
        if trace is None:
            trace = _Trace(self.trace_id(request_id), int(request_id))
            self._traces[request_id] = trace
        return trace

    def begin(self, request_id: int, name: str, start_s: float,
              parent: Optional[int] = None,
              attrs: Optional[Mapping[str, object]] = None) -> int:
        """Open a span; returns its ``span_id`` for :meth:`end`.

        The first parentless span of a request is its root.
        """
        return self._trace(request_id).add(
            name, start_s, parent, "span", attrs
        ).span_id

    def end(self, request_id: int, span_id: int, end_s: float,
            attrs: Optional[Mapping[str, object]] = None) -> None:
        """Close an open span at virtual ``end_s`` (idempotent-safe:
        unknown ids are ignored so instrumentation never throws)."""
        trace = self._traces.get(request_id)
        # Span ids count up from 1 in creation order: id n is spans[n-1].
        if trace is None or not 0 < span_id <= len(trace.spans):
            return
        span = trace.spans[span_id - 1]
        span.end_s = float(end_s)
        if attrs:
            span.attrs.update(attrs)

    def event(self, request_id: int, name: str, at_s: float,
              parent: Optional[int] = None,
              attrs: Optional[Mapping[str, object]] = None) -> int:
        """A zero-duration point event on the request's tree."""
        span = self._trace(request_id).add(
            name, at_s, parent, "event", attrs
        )
        span.end_s = span.start_s
        return span.span_id

    @contextmanager
    def activate(self, request_id: int,
                 span_id: Optional[int] = None) -> Iterator[None]:
        """Mark (trace_id, span_id) active for the enclosed host work.

        ``span_id`` defaults to the request's root span. While active,
        :func:`current_context` resolves to this span, so JSON-lines log
        records and driver spans emitted underneath carry the request's
        trace id.
        """
        trace = self._trace(request_id)
        if span_id is None:
            root = trace.root
            span_id = root.span_id if root is not None else 0
        _ACTIVE.append((trace.trace_id, int(span_id)))
        try:
            yield
        finally:
            _ACTIVE.pop()

    def sink(self) -> "_ReplayFold":
        """A fresh :class:`_ReplayFold` for one fleet replay's decisions."""
        return _ReplayFold(self)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces)

    @property
    def span_count(self) -> int:
        return sum(len(t.spans) for t in self._traces.values())

    def request_ids(self) -> List[int]:
        return sorted(self._traces)

    def spans(self, request_id: int) -> List[Span]:
        trace = self._traces.get(request_id)
        return list(trace.spans) if trace is not None else []

    def root(self, request_id: int) -> Optional[Span]:
        trace = self._traces.get(request_id)
        return trace.root if trace is not None else None

    def span_tree(self, request_id: int) -> Optional[dict]:
        """The request's spans as a nested dict (root at the top)."""
        trace = self._traces.get(request_id)
        if trace is None or trace.root is None:
            return None
        children: Dict[Optional[int], List[Span]] = {}
        for span in trace.spans:
            children.setdefault(span.parent_id, []).append(span)

        def build(span: Span) -> dict:
            kids = sorted(
                children.get(span.span_id, []),
                key=lambda s: (s.start_s, s.span_id),
            )
            return {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "name": span.name,
                "kind": span.kind,
                "start_s": span.start_s,
                "end_s": span.end_s,
                "attrs": dict(span.attrs),
                "children": [build(k) for k in kids],
            }

        return build(trace.root)

    def digest(self) -> str:
        """Stable hexdigest of every recorded span (replay witness)."""
        h = hashlib.blake2b(digest_size=16)
        for rid in self.request_ids():
            for span in self._traces[rid].spans:
                h.update(repr(span.row()).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, result) -> int:
        """Assert every response's latency equals its root span exactly.

        ``result`` is a :class:`repro.serving.fleet.FleetResult`. For
        each response with a latency, the request's root span must exist
        and span precisely ``arrival_s → finish_s`` — not approximately:
        the fleet records the same virtual-time floats in both places,
        so equality is exact. Returns the number of reconciled requests;
        raises ``ValueError`` on the first mismatch or missing trace.
        """
        checked = 0
        for resp in result.responses:
            if resp.latency_s is None:
                continue
            root = self.root(resp.request_id)
            if root is None:
                raise ValueError(
                    f"request {resp.request_id} has a latency but no "
                    "recorded root span"
                )
            if root.end_s is None:
                raise ValueError(
                    f"request {resp.request_id}: root span never closed"
                )
            if root.start_s != resp.arrival_s or root.end_s != resp.finish_s:
                raise ValueError(
                    f"request {resp.request_id}: root span "
                    f"[{root.start_s}, {root.end_s}] does not reconcile "
                    f"with response [{resp.arrival_s}, {resp.finish_s}]"
                )
            if root.duration_s != resp.latency_s:
                raise ValueError(
                    f"request {resp.request_id}: span duration "
                    f"{root.duration_s} != latency {resp.latency_s}"
                )
            checked += 1
        return checked

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` dict: one "X" event per span, one
        ``tid`` per request (virtual seconds → microseconds)."""
        events: List[dict] = []
        for rid in self.request_ids():
            trace = self._traces[rid]
            for span in trace.spans:
                end = span.end_s if span.end_s is not None else span.start_s
                event = {
                    "name": span.name,
                    "cat": "request" if span.kind == "span" else "request.event",
                    "ph": "X" if span.kind == "span" else "i",
                    "ts": span.start_s * 1e6,
                    "pid": REQUEST_PID,
                    "tid": rid,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **span.attrs,
                    },
                }
                if span.kind == "span":
                    event["dur"] = (end - span.start_s) * 1e6
                else:
                    event["s"] = "t"
                events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tracks": {str(REQUEST_PID): "requests (virtual us)"}
            },
        }

    def export_chrome(self, path: Optional[str] = None) -> dict:
        trace = self.chrome_trace()
        if path is not None:
            with open(path, "w") as fh:
                json.dump(trace, fh, indent=1)
        return trace

    def summary(self, limit: int = 20) -> str:
        """Text rollup: slowest requests first, with per-stage split."""
        rows: List[List[object]] = []
        ranked = []
        for rid in self.request_ids():
            root = self._traces[rid].root
            if root is None or root.duration_s is None:
                continue
            ranked.append((root.duration_s, rid))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        for duration, rid in ranked[:limit]:
            stages = {
                s.name: s.duration_s
                for s in self._traces[rid].spans
                if s.kind == "span" and s.parent_id is not None
                and s.duration_s is not None
            }
            root = self._traces[rid].root
            rows.append([
                rid,
                root.trace_id,
                f"{duration * 1e3:.3f}",
                f"{stages.get('queue', 0.0) * 1e3:.3f}",
                f"{stages.get('service', 0.0) * 1e3:.3f}",
                str(root.attrs.get("status", "-")),
            ])
        if not rows:
            return "(no request traces recorded)"
        return format_table(
            ["request", "trace_id", "latency_ms", "queue_ms", "service_ms",
             "status"],
            rows,
        )


class _ReplayFold:
    """Folds one fleet replay's decisions into the tracer's span trees.

    Holds the replay's open span ids per request: the root, the queue
    wait, and the last service span (a shard kill truncates it as
    voided). ``on_<kind>`` handles a decision of that kind, with its
    facts (:data:`repro.obs.probe.DECISION_FACTS`) as arguments.
    """

    __slots__ = ("tracer", "root", "queue", "service")

    def __init__(self, tracer: RequestTracer) -> None:
        self.tracer = tracer
        self.root: Dict[int, int] = {}
        self.queue: Dict[int, int] = {}
        self.service: Dict[int, int] = {}

    def __call__(self, now: float, rid: int, kind: str, info: str,
                 facts: tuple) -> None:
        fold = getattr(self, "on_" + kind, None)
        if fold is not None:
            fold(now, rid, kind, info, *facts)

    def _root(self, req: Any) -> int:
        """The request's root span, opened at its first decision."""
        rid = req.request_id
        root = self.root.get(rid)
        if root is None:
            root = self.root[rid] = self.tracer.begin(
                rid, "request", req.arrival_s,
                attrs={
                    "kernel": req.kernel, "workload": req.workload,
                    "tenant": req.tenant, "priority": req.priority,
                },
            )
        return root

    def _event(self, now: float, rid: int, name: str, **attrs: object) -> None:
        self.tracer.event(rid, name, now, parent=self.root.get(rid),
                          attrs=attrs)

    def _wait(self, now: float, rid: int, shard: int, epoch: int) -> None:
        self.queue[rid] = self.tracer.begin(
            rid, "queue", now, parent=self.root.get(rid),
            attrs={"shard": shard, "epoch": epoch},
        )

    def _service(self, resp: Any, key: str, value: object) -> None:
        """Open and close the ``service`` span over the response's
        virtual service window (its finish is already known — this is a
        simulation), ending the queue wait at its start."""
        rid, tracer = resp.request_id, self.tracer
        queued = self.queue.pop(rid, None)
        if queued is not None:
            tracer.end(rid, queued, resp.start_s, attrs={"tier": resp.tier})
        span = tracer.begin(
            rid, "service", resp.start_s, parent=self.root.get(rid),
            attrs={
                "tier": resp.tier, "shard": resp.shard,
                "replica": resp.replica, "epoch": resp.epoch, key: value,
            },
        )
        tracer.end(rid, span, resp.finish_s)
        self.service[rid] = span

    def on_rejected(self, now, rid, kind, info, req) -> None:
        """Answered unserved (also ``shed`` and ``failed``), for the
        reason in ``info``."""
        tracer, root = self.tracer, self._root(req)
        queued = self.queue.pop(rid, None)
        if queued is not None:
            tracer.end(rid, queued, now, attrs={"outcome": kind})
        tracer.event(rid, kind, now, parent=root, attrs={"reason": info})
        tracer.end(rid, root, now, attrs={"status": kind})

    on_shed = on_failed = on_rejected

    def on_admit(self, now, rid, kind, info, req, shard, depth, routing):
        self._root(req)
        self._event(now, rid, "admit", shard=shard, depth=depth,
                    routing=routing)
        self._wait(now, rid, shard, 0)

    def on_requeue(self, now, rid, kind, info, shard, epoch) -> None:
        self._event(now, rid, "requeue", shard=shard, epoch=epoch)
        self._wait(now, rid, shard, epoch)

    def on_degrade(self, now, rid, kind, info, resp) -> None:
        self._service(resp, "reason", resp.detail["reason"])

    def on_dispatch(self, now, rid, kind, info, resp, breaker) -> None:
        # An analytic dispatch opened its service span on ``degrade``.
        if resp.replica is not None:
            self._service(resp, "cache", resp.detail["cache"])

    def on_fault(self, now, rid, kind, info, shard, replica, breaker,
                 error) -> None:
        self._event(now, rid, "fault", shard=shard, replica=replica,
                    error=error)

    def on_complete(self, now, rid, kind, info, resp) -> None:
        root = self.root.get(rid)
        if root is not None:
            # Closed at resp.finish_s (== now): the root span then covers
            # arrival→finish exactly, which is what reconcile() checks.
            self.tracer.end(rid, root, resp.finish_s, attrs={
                "status": resp.status, "tier": resp.tier,
                "degraded": resp.degraded,
            })

    def on_stale(self, now, rid, kind, info, resp) -> None:
        self._event(now, rid, "stale_completion", epoch=resp.epoch,
                    shard=resp.shard)

    def on_hedge_cancel(self, now, rid, kind, info, resp, role) -> None:
        self._event(now, rid, "hedge_cancel", role=role, shard=resp.shard)

    def on_duplicate(self, now, rid, kind, info, resp) -> None:
        self._event(now, rid, "duplicate_completion", shard=resp.shard)

    def on_redeal(self, now, rid, kind, info, shard, epoch) -> None:
        self._event(now, rid, "redeal", to_shard=shard, epoch=epoch)

    def on_shard_kill(self, now, rid, kind, info, shard, orphans) -> None:
        # Orphaned queue waits end here; the re-dealt copy opens a fresh
        # queue span on the survivor.
        for req, _ in orphans:
            queued = self.queue.pop(req.request_id, None)
            if queued is not None:
                self.tracer.end(req.request_id, queued, now,
                                attrs={"outcome": "shard_killed"})

    def on_void(self, now, rid, kind, info, shard, epoch) -> None:
        self._event(now, rid, "void", shard=shard, epoch=epoch)
        # The in-flight service span never committed: truncate it at the
        # kill and mark it voided.
        span = self.service.pop(rid, None)
        if span is not None:
            self.tracer.end(rid, span, now, attrs={"voided": True})


def _discard(now: float, rid: int, kind: str, info: str,
             facts: tuple) -> None:
    """The sink of a disabled tracer: it keeps nothing."""


#: The disabled tracer's activation: one shared no-op context, so a
#: launch with request tracing off builds no generator.
_NO_ACTIVATION = nullcontext()


class NullRequestTracer:
    """The disabled request tracer: every method is a no-op."""

    enabled = False

    def trace_id(self, request_id: int) -> str:
        return ""

    def begin(self, request_id: int, name: str, start_s: float,
              parent: Optional[int] = None,
              attrs: Optional[Mapping[str, object]] = None) -> int:
        return 0

    def end(self, request_id: int, span_id: int, end_s: float,
            attrs: Optional[Mapping[str, object]] = None) -> None:
        pass

    def event(self, request_id: int, name: str, at_s: float,
              parent: Optional[int] = None,
              attrs: Optional[Mapping[str, object]] = None) -> int:
        return 0

    def activate(self, request_id: int,
                 span_id: Optional[int] = None) -> AbstractContextManager:
        return _NO_ACTIVATION

    def sink(self) -> DecisionSink:
        return _discard

    def __len__(self) -> int:
        return 0

    span_count = 0

    def request_ids(self) -> List[int]:
        return []

    def spans(self, request_id: int) -> List[Span]:
        return []

    def root(self, request_id: int) -> None:
        return None

    def span_tree(self, request_id: int) -> None:
        return None

    def digest(self) -> str:
        return ""

    def reconcile(self, result) -> int:
        return 0

    def chrome_trace(self) -> dict:
        return {"traceEvents": []}

    def export_chrome(self, path: Optional[str] = None) -> dict:
        return {"traceEvents": []}

    def summary(self, limit: int = 20) -> str:
        return "(request tracing disabled)"


NULL_REQUEST_TRACER = NullRequestTracer()
