"""Host-time spans around the program's layer boundaries, from outside.

:func:`installed` replaces the public functions listed in :data:`SHIMS`
with timing wrappers for the duration of one traced repetition and puts
the originals back afterwards; nothing under ``src/`` changes. Each
wrapper records a span (name, start, end, parent, track) in a
:class:`SpanRecorder`, which keeps every span in memory and folds them
into per-layer call counts and self times (span minus child spans).

Module-level functions are wrapped in the module that calls them (the
accelerator imports its kernels and ``fingerprint_arrays`` by name), so
the wrapper sees exactly the calls the simulator makes.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer, module, attributes). A ``Class.method`` attribute is wrapped
#: on the class. ``serving.ladder`` spans are named by tier at call time.
SHIMS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("serving.trace.build", "repro.serving.trace", ("synthetic_trace",)),
    ("serving.ladder.calibrate", "repro.serving.fleet",
     ("calibrate_analytic_error",)),
    ("datasets.load", "repro.datasets.registry", ("load_tensor",)),
    ("serving.fleet", "repro.serving.fleet", ("TensaurusFleet.run_trace",)),
    ("serving.ring.route", "repro.serving.ring", ("HashRing.route",)),
    ("serving.tenant.admit", "repro.serving.tenant",
     ("TenantGovernor.admit",)),
    ("serving.breaker.allow", "repro.serving.breaker",
     ("CircuitBreaker.allow",)),
    ("serving.health.assess", "repro.serving.health",
     ("HealthMonitor.assess",)),
    ("serving.ladder", "repro.serving.ladder",
     ("DegradationLadder.execute",)),
    ("sim.perfmodel", "repro.sim.perfmodel",
     ("FastModel.mttkrp", "FastModel.ttmc", "FastModel.spmm",
      "FastModel.spmv")),
    ("sim.accelerator.run", "repro.sim.accelerator",
     ("Tensaurus.run_mttkrp", "Tensaurus.run_ttmc", "Tensaurus.run_spmm",
      "Tensaurus.run_spmv")),
    ("sim.batch.fingerprint", "repro.sim.accelerator",
     ("fingerprint_arrays",)),
    ("sim.batch.analyze_tile_stream", "repro.sim.accelerator",
     ("analyze_tile_stream",)),
    ("formats.csr.to_coo", "repro.formats.csr", ("CSRMatrix.to_coo",)),
    ("kernels.mttkrp", "repro.sim.accelerator", ("mttkrp_sparse_factored",)),
    ("kernels.ttmc", "repro.sim.accelerator", ("ttmc_sparse_factored",)),
    ("kernels.spmm", "repro.sim.accelerator", ("spmm_ref",)),
    ("kernels.spmv", "repro.sim.accelerator", ("spmv_ref",)),
    ("factorization", "repro.factorization.accelerated",
     ("accelerated_cp_als",)),
)


class SpanRecorder:
    """In-memory spans of one traced repetition plus their rollups.

    Spans live on tracks: track 0 is the benchmark and the fleet's event
    loop; a launch the fleet runs for request ``r`` (inside the request
    context it opens around simulator launches) goes on track ``r + 1``,
    and each CP-ALS run gets a track of its own.
    """

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, track]
        self.spans: List[list] = []
        self._open: List[list] = []  # [span index, child seconds]
        self.track = 0
        self._next_track = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.fingerprint_bytes = 0
        self.launches = 0
        self.repeat_launches = 0
        self._launch_keys: set = set()

    def open(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.track])
        self._open.append([len(self.spans) - 1, 0.0])

    def close(self) -> None:
        end = perf_counter()
        index, child_s = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        name = span[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if self._open:
            self._open[-1][1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    @contextmanager
    def on_track(self, track: int) -> Iterator[None]:
        previous, self.track = self.track, track
        try:
            yield
        finally:
            self.track = previous

    def new_track(self) -> int:
        self._next_track += 1
        return self._next_track

    def note_launch(self, key: tuple) -> None:
        """Count a simulator launch and whether its inputs repeat."""
        self.launches += 1
        if key in self._launch_keys:
            self.repeat_launches += 1
        else:
            self._launch_keys.add(key)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events, in the order they happened.

        Spans are stored in the order they opened and nest by call, so a
        depth-first walk emits every begin and end chronologically.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        events: List[dict] = []

        def emit(index: int, phase: str) -> None:
            name, start, end, parent, track = self.spans[index]
            event = {
                "name": name, "cat": "host", "ph": phase,
                "ts": ((start if phase == "B" else end) - t0) * 1e6,
                "pid": 1, "tid": track,
            }
            if phase == "B":
                event["args"] = {"span": index, "parent": parent}
            events.append(event)

        stack: List[int] = []
        for index, span in enumerate(self.spans):
            while stack and stack[-1] != span[3]:
                emit(stack.pop(), "E")
            emit(index, "B")
            stack.append(index)
        while stack:
            emit(stack.pop(), "E")
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _launch_key(method: str, args: tuple, kwargs: dict) -> tuple:
    # Operands are long-lived objects (pool items, loaded tensors), so
    # their identity names the workload.
    return (
        method, id(args[1]), kwargs.get("mode", 0),
        kwargs.get("compute_output", True),
    )


def _wrap(fn: Callable, rec: SpanRecorder, layer: str, name: str) -> Callable:
    """A timing wrapper around ``fn``. The hot shims open and close spans
    directly rather than through a context manager, which keeps the cost
    that ``trace.overhead_frac`` reports small."""
    if layer == "serving.ladder":
        def shim(self, tier, *args, **kwargs):
            rec.open(f"serving.ladder.{tier}")
            try:
                return fn(self, tier, *args, **kwargs)
            finally:
                rec.close()
    elif layer == "sim.accelerator.run":
        def shim(*args, **kwargs):
            rec.note_launch(_launch_key(name, args, kwargs))
            rec.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close()
    elif layer == "sim.batch.fingerprint":
        def shim(*arrays):
            rec.fingerprint_bytes += sum(a.nbytes for a in arrays)
            rec.open(layer)
            try:
                return fn(*arrays)
            finally:
                rec.close()
    elif layer == "factorization":
        def shim(*args, **kwargs):
            with rec.on_track(rec.new_track()), rec.span(layer):
                return fn(*args, **kwargs)
    else:
        def shim(*args, **kwargs):
            rec.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close()
    return functools.wraps(fn)(shim)


def targets() -> Iterator[Tuple[str, object, str]]:
    """Every wrapped ``(layer, owner, attribute name)``."""
    for layer, module_name, attrs in SHIMS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner: object = module
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            yield layer, owner, name


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[None]:
    """Wrap every layer boundary for the block; restore the originals."""
    from repro import obs
    from repro.obs.reqtrace import NullRequestTracer

    class RequestContext(NullRequestTracer):
        """Disabled request tracer that only names the request whose
        launch runs inside ``activate`` (the fleet opens it around each
        simulator launch), so those spans go on the request's track."""

        @contextmanager
        def activate(self, request_id, span_id=None):
            with rec.on_track(int(request_id) + 1):
                yield

    patched: List[Tuple[object, str, object]] = []
    previous_rt = obs.set_request_tracer(RequestContext())
    try:
        for layer, owner, name in targets():
            original = vars(owner)[name]
            setattr(owner, name, _wrap(original, rec, layer, name))
            patched.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        obs.set_request_tracer(previous_rt)
