"""Tests for per-request tracing (:mod:`repro.obs.reqtrace`).

Covers the span API (begin/end/event, trees, idempotent amendment), the
deterministic trace-id scheme, the context stack that correlates logs and
driver spans, Chrome export, and the headline contract: a traced fleet
replay yields one causally-linked span tree per request whose root
reconciles *exactly* with the ``FleetResult`` latencies, bit-identically
across replays.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    NULL_REQUEST_TRACER,
    REQUEST_PID,
    NullRequestTracer,
    RequestTracer,
    validate_chrome_trace,
)
from repro.obs.reqtrace import current_context
from repro.serving import (
    FleetConfig,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.sim.faults import FaultPlan

SEED = 29


class TestSpanAPI:
    def test_begin_end_and_tree(self):
        rt = RequestTracer(seed=1)
        root = rt.begin(7, "request", 0.0, attrs={"kernel": "spmv"})
        queue = rt.begin(7, "queue", 0.0, parent=root)
        rt.end(7, queue, 0.010)
        service = rt.begin(7, "service", 0.010, parent=root)
        rt.end(7, service, 0.025)
        rt.end(7, root, 0.025)
        tree = rt.span_tree(7)
        assert tree["name"] == "request"
        assert [c["name"] for c in tree["children"]] == ["queue", "service"]
        assert tree["start_s"] == 0.0 and tree["end_s"] == 0.025

    def test_event_is_zero_duration(self):
        rt = RequestTracer()
        root = rt.begin(1, "request", 0.0)
        rt.event(1, "admit", 0.001, parent=root, attrs={"shard": 2})
        (span,) = [s for s in rt.spans(1) if s.kind == "event"]
        assert span.start_s == span.end_s == 0.001
        assert span.attrs["shard"] == 2

    def test_end_amends_attrs(self):
        # kill_shard() re-ends an already-closed service span to stamp
        # voided=True; the amendment must merge, not replace.
        rt = RequestTracer()
        root = rt.begin(1, "request", 0.0)
        svc = rt.begin(1, "service", 0.0, parent=root, attrs={"tier": "full"})
        rt.end(1, svc, 0.01)
        rt.end(1, svc, 0.02, attrs={"voided": True})
        (span,) = [s for s in rt.spans(1) if s.name == "service"]
        assert span.attrs == {"tier": "full", "voided": True}
        assert span.end_s == 0.02

    def test_trace_ids_deterministic_per_seed(self):
        a, b = RequestTracer(seed=5), RequestTracer(seed=5)
        assert a.trace_id(42) == b.trace_id(42)
        assert a.trace_id(42) != a.trace_id(43)
        assert RequestTracer(seed=6).trace_id(42) != a.trace_id(42)

    def test_activate_drives_current_context(self):
        rt = RequestTracer()
        root = rt.begin(3, "request", 0.0)
        assert current_context() is None
        with rt.activate(3, root):
            trace_id, span_id = current_context()
            assert trace_id == rt.trace_id(3) and span_id == root
        assert current_context() is None

    def test_activate_nests(self):
        rt = RequestTracer()
        r1 = rt.begin(1, "request", 0.0)
        r2 = rt.begin(2, "request", 0.0)
        with rt.activate(1, r1):
            with rt.activate(2, r2):
                assert current_context()[0] == rt.trace_id(2)
            assert current_context()[0] == rt.trace_id(1)

    def test_digest_tracks_content(self):
        rt = RequestTracer(seed=2)
        root = rt.begin(1, "request", 0.0)
        rt.end(1, root, 0.01)
        before = rt.digest()
        assert before == RequestTracerReplay().digest()
        rt.event(1, "late", 0.02)
        assert rt.digest() != before


def RequestTracerReplay():
    rt = RequestTracer(seed=2)
    root = rt.begin(1, "request", 0.0)
    rt.end(1, root, 0.01)
    return rt


class TestChromeExport:
    def test_export_validates_and_uses_request_pid(self, tmp_path):
        rt = RequestTracer()
        root = rt.begin(9, "request", 0.0)
        rt.event(9, "admit", 0.001, parent=root)
        rt.end(9, root, 0.02)
        payload = rt.chrome_trace()
        validate_chrome_trace(payload)
        assert all(e["pid"] == REQUEST_PID for e in payload["traceEvents"])
        assert {e["ph"] for e in payload["traceEvents"]} == {"X", "i"}
        path = tmp_path / "req.json"
        rt.export_chrome(str(path))
        assert json.loads(path.read_text()) == payload

    def test_overlapping_spans_allowed(self):
        # Hedged launches overlap their parent service span; "X" complete
        # events carry their own durations so no stack discipline applies.
        rt = RequestTracer()
        root = rt.begin(1, "request", 0.0)
        svc = rt.begin(1, "service", 0.0, parent=root)
        hedge = rt.begin(1, "hedge", 0.005, parent=svc)
        rt.end(1, svc, 0.02)
        rt.end(1, hedge, 0.02)
        rt.end(1, root, 0.02)
        validate_chrome_trace(rt.chrome_trace())


class TestNullRequestTracer:
    def test_all_noops(self):
        rt = NullRequestTracer()
        assert not rt.enabled
        assert rt.begin(1, "x", 0.0) == 0
        rt.end(1, 0, 1.0)
        rt.event(1, "e", 0.5)
        with rt.activate(1, 0):
            assert current_context() is None
        assert rt.span_tree(1) is None
        assert rt.request_ids() == []
        assert rt.reconcile(object()) == 0
        assert rt.chrome_trace() == {"traceEvents": []}

    def test_activate_is_one_shared_noop(self):
        # The fleet enters activate() on every full- and batched-tier
        # launch; disabled, it must hand back one cached context.
        rt = NullRequestTracer()
        ctx = rt.activate(1, 0)
        assert rt.activate(2) is ctx
        assert NULL_REQUEST_TRACER.activate(3, 7) is ctx
        with ctx:
            with rt.activate(4):
                assert current_context() is None
        live = RequestTracer()
        root = live.begin(5, "request", 0.0)
        with live.activate(5, root):
            assert current_context() == (live.trace_id(5), root)
        assert current_context() is None

    def test_default_global_is_null(self):
        assert obs.request_tracer() is NULL_REQUEST_TRACER
        assert not obs.request_tracer().enabled


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED, variants=3)


@pytest.fixture(scope="module")
def trace(pool):
    return synthetic_trace(
        pool, duration_s=0.4, base_rate=120.0, spike_factor=5.0,
        deadline_s=0.05, seed=SEED, tenants=("acme", "beta"),
    )


def _run_observed(pool, trace, plan=None):
    cfg = FleetConfig(
        seed=SEED, shards=3, replicas_per_shard=2, queue_depth=64,
    )
    fleet = TensaurusFleet(cfg, fault_plan=plan, pool=pool)
    with obs.observe(requests=RequestTracer(seed=SEED)) as ob:
        result = fleet.run_trace(trace)
    return result, ob


class TestFleetIntegration:
    def test_every_request_gets_a_trace(self, pool, trace):
        result, ob = _run_observed(pool, trace)
        assert ob.requests.request_ids() == sorted(
            r.request_id for r in result.responses
        )

    def test_reconciles_exactly_with_fleet_result(self, pool, trace):
        result, ob = _run_observed(pool, trace)
        served = sum(1 for r in result.responses if r.latency_s is not None)
        assert ob.requests.reconcile(result) == served

    def test_reconcile_rejects_tampered_latency(self, pool, trace):
        result, ob = _run_observed(pool, trace)
        victim = next(r for r in result.responses if r.latency_s is not None)
        victim.finish_s += 0.001
        with pytest.raises(ValueError):
            ob.requests.reconcile(result)

    def test_replay_digest_bit_identical(self, pool, trace):
        _, ob1 = _run_observed(pool, trace)
        _, ob2 = _run_observed(pool, trace)
        assert ob1.requests.digest() == ob2.requests.digest()
        assert ob1.requests.digest()

    def test_chaos_trace_validates_and_reconciles(self, pool, trace):
        plan = FaultPlan(seed=SEED, forced_shard_kills=((1, 0.5),))
        result, ob = _run_observed(pool, trace, plan)
        validate_chrome_trace(ob.requests.chrome_trace())
        assert ob.requests.reconcile(result) > 0
        names = {
            s.name
            for rid in ob.requests.request_ids()
            for s in ob.requests.spans(rid)
        }
        # Failover leaves its footprint in the span vocabulary.
        assert {"request", "queue", "service"} <= names
        assert "redeal" in names or "requeue" in names

    def test_summary_lists_slowest_requests(self, pool, trace):
        _, ob = _run_observed(pool, trace)
        text = ob.requests.summary(limit=5)
        assert "request" in text
