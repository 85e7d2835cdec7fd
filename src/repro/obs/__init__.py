"""Observability layer: metrics, span tracing, request tracing, logging.

Zero overhead when disabled (the default): the active tracer, registry,
request tracer and probe are module-level singletons that start as
:data:`NULL_TRACER` / :data:`NULL_REGISTRY` /
:data:`NULL_REQUEST_TRACER` / :data:`NULL_PROBE`, whose every method is
a no-op. Instrumented code reads them through :func:`tracer` /
:func:`metrics` / :func:`request_tracer` / :func:`probe` (the fleet once
per replay, never across calls), so activation is a single global swap:

    with obs.observe(requests=True) as ob:
        fleet.run_trace(requests)
    ob.tracer.export_chrome("trace.json")
    ob.requests.export_chrome("requests.json")
    print(ob.registry.to_json())

Instrumentation is *observational only*: simulator and fleet outputs
(``SimReport`` fields, decision logs, result tables, cached artifacts)
are bit-identical whether or not an observer is active — the contract CI
enforces.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional, Union

from repro.obs.logs import get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.probe import (
    ChaosProbe,
    NullProbe,
    NULL_PROBE,
)
from repro.obs.reqtrace import (
    NullRequestTracer,
    RequestTracer,
    NULL_REQUEST_TRACER,
    REQUEST_PID,
    current_context,
)
from repro.obs.trace import (
    HOST_PID,
    SIM_PID,
    NullTracer,
    Tracer,
    NULL_TRACER,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetric",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_chrome_trace",
    "HOST_PID",
    "SIM_PID",
    "REQUEST_PID",
    "RequestTracer",
    "NullRequestTracer",
    "NULL_REQUEST_TRACER",
    "ChaosProbe",
    "NullProbe",
    "NULL_PROBE",
    "current_context",
    "get_logger",
    "tracer",
    "metrics",
    "request_tracer",
    "probe",
    "set_tracer",
    "set_registry",
    "set_request_tracer",
    "set_probe",
    "observe",
    "Observation",
]

_TRACER: Union[Tracer, NullTracer] = NULL_TRACER
_REGISTRY: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY
_REQUEST_TRACER: Union[RequestTracer, NullRequestTracer] = NULL_REQUEST_TRACER
_PROBE: Union[ChaosProbe, NullProbe] = NULL_PROBE


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the null tracer unless observation is on)."""
    return _TRACER


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active metrics registry (null unless observation is on)."""
    return _REGISTRY


def request_tracer() -> Union[RequestTracer, NullRequestTracer]:
    """The active request tracer (null unless request tracing is on)."""
    return _REQUEST_TRACER


def probe() -> Union[ChaosProbe, NullProbe]:
    """The active chaos probe (null unless one is installed)."""
    return _PROBE


def set_tracer(
    new: Optional[Union[Tracer, NullTracer]],
) -> Union[Tracer, NullTracer]:
    """Install ``new`` (or the null tracer for None); returns the old one."""
    global _TRACER
    previous = _TRACER
    _TRACER = new if new is not None else NULL_TRACER
    return previous


def set_registry(
    new: Optional[Union[MetricsRegistry, NullRegistry]],
) -> Union[MetricsRegistry, NullRegistry]:
    """Install ``new`` (or the null registry for None); returns the old one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new if new is not None else NULL_REGISTRY
    return previous


def set_request_tracer(
    new: Optional[Union[RequestTracer, NullRequestTracer]],
) -> Union[RequestTracer, NullRequestTracer]:
    """Install ``new`` (or the null request tracer for None)."""
    global _REQUEST_TRACER
    previous = _REQUEST_TRACER
    _REQUEST_TRACER = new if new is not None else NULL_REQUEST_TRACER
    return previous


def set_probe(
    new: Optional[Union[ChaosProbe, NullProbe]],
) -> Union[ChaosProbe, NullProbe]:
    """Install ``new`` (or the null probe for None); returns the old one."""
    global _PROBE
    previous = _PROBE
    _PROBE = new if new is not None else NULL_PROBE
    return previous


class Observation(NamedTuple):
    """The live observer bundle yielded by :func:`observe`."""

    tracer: Union[Tracer, NullTracer]
    registry: Union[MetricsRegistry, NullRegistry]
    requests: Union[RequestTracer, NullRequestTracer] = NULL_REQUEST_TRACER
    probe: Union[ChaosProbe, NullProbe] = NULL_PROBE


def _chosen(value, make, null):
    """``observe``'s reading of ``requests=`` / ``probe=``: True makes a
    fresh observer, False or None the null one, anything else is used."""
    if value is True:
        return make()
    return null if value is False or value is None else value


@contextmanager
def observe(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    registry: Optional[Union[MetricsRegistry, NullRegistry]] = None,
    micro: bool = False,
    requests: Union[bool, RequestTracer, NullRequestTracer] = False,
    probe: Union[bool, ChaosProbe, NullProbe] = False,
) -> Iterator[Observation]:
    """Activate instrumentation for the duration of the block.

    Fresh ``Tracer(micro=...)`` / ``MetricsRegistry`` instances are
    created unless provided. ``requests=True`` additionally installs a
    fresh :class:`RequestTracer` (or pass one in to control its seed);
    ``probe=True`` installs a fresh :class:`ChaosProbe` keeping the
    fleet decisions the chaos invariants judge. The
    previous globals are restored on exit; the yielded
    :class:`Observation` keeps the collected data alive for export after
    the block.
    """
    live_tracer = tracer if tracer is not None else Tracer(micro=micro)
    live_registry = registry if registry is not None else MetricsRegistry()
    live_requests = _chosen(requests, RequestTracer, NULL_REQUEST_TRACER)
    live_probe = _chosen(probe, ChaosProbe, NULL_PROBE)
    prev_tracer = set_tracer(live_tracer)
    prev_registry = set_registry(live_registry)
    prev_requests = set_request_tracer(live_requests)
    prev_probe = set_probe(live_probe)
    try:
        yield Observation(live_tracer, live_registry, live_requests, live_probe)
    finally:
        set_tracer(prev_tracer)
        set_registry(prev_registry)
        set_request_tracer(prev_requests)
        set_probe(prev_probe)
