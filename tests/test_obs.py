"""Tests for the instrumentation layer (:mod:`repro.obs`).

Covers the metrics registry (labels, snapshots, kind collisions), the
tracer (span pairing, Chrome-trace schema, summary rollup), module
loggers, and — most importantly — the contract the whole layer hangs on:
instrumentation is observational. With observers active the simulator's
reports are bit-identical to an uninstrumented run, and the recorded
per-phase cycles reconcile exactly with ``SimReport``/``Timeline``
aggregates.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.factorization.accelerated import accelerated_cp_als
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    validate_chrome_trace,
)
from repro.sim import Tensaurus, TensaurusConfig, Timeline
from repro.util.rng import make_rng

from tests.conftest import random_tensor


class TestMetricsRegistry:
    def test_counter_inc_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c", "a counter").inc()
        reg.counter("c", "a counter").inc(4)
        snap = reg.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 5}

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c", "a counter").inc(-1)

    def test_labeled_children_mirror_into_parent(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "by kind", ("kind",))
        c.labels(kind="a").inc(3)
        c.labels(kind="b").inc(2)
        snap = reg.snapshot()
        assert snap["hits"]["value"] == 5
        assert snap["hits"]["children"] == {"a": 3, "b": 2}

    def test_labels_validates_names(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "by kind", ("kind",))
        with pytest.raises(ValueError):
            c.labels(wrong="a")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "first registration wins")
        with pytest.raises(ValueError):
            reg.gauge("x", "not a counter")

    def test_gauge_takes_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("level", "a level")
        g.set(10.0)
        g.set(3.0)
        assert reg.snapshot()["level"]["value"] == 3.0

    def test_histogram_state(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latencies", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        state = reg.snapshot()["lat"]["value"]
        assert state["count"] == 3
        assert state["sum"] == 55.5
        assert state["min"] == 0.5 and state["max"] == 50.0
        assert state["buckets"] == {"1.0": 1, "10.0": 1, "+inf": 1}

    def test_render_and_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c", "counts", ("k",)).labels(k="x").inc(2)
        assert json.loads(reg.to_json())["c"]["children"] == {"x": 2}

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        metric = reg.counter("c", "ignored")
        metric.inc(5)
        assert metric.labels(anything="goes") is metric
        assert reg.snapshot() == {}
        assert not reg.enabled


class TestTracer:
    def test_span_pairs_validate(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        count = validate_chrome_trace(tr.chrome_trace())
        assert count == 4

    def test_add_launch_phases_sum_to_cycles(self):
        tr = Tracer()
        tr.add_launch("k", 100, phases={"stream": 30, "compute": 60, "drain": 10})
        events = tr.chrome_trace()["traceEvents"]
        launch_b = next(e for e in events if e["cat"] == "sim.launch" and e["ph"] == "B")
        launch_e = next(e for e in events if e["cat"] == "sim.launch" and e["ph"] == "E")
        assert launch_e["ts"] - launch_b["ts"] == 100
        phase_spans = [e for e in events if e["cat"] == "sim.phase"]
        # Back-to-back children cover the launch exactly.
        widths = [
            phase_spans[i + 1]["ts"] - phase_spans[i]["ts"]
            for i in range(0, len(phase_spans), 2)
        ]
        assert sum(widths) == 100
        validate_chrome_trace(tr.chrome_trace())

    def test_consecutive_launches_stay_monotonic(self):
        tr = Tracer()
        tr.add_launch("a", 10)
        tr.add_launch("b", 20)
        validate_chrome_trace(tr.chrome_trace())

    def test_summary_aggregates_by_name(self):
        tr = Tracer()
        tr.add_launch("k", 10)
        tr.add_launch("k", 30)
        summary = tr.summary()
        assert "k" in summary and "cycles" in summary

    def test_validator_rejects_interleaved_spans(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
                {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="interleaved"):
            validate_chrome_trace(bad)

    def test_validator_rejects_backwards_timestamps(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 5, "pid": 1, "tid": 1},
                {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(bad)

    def test_validator_rejects_unclosed_span(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(bad)

    def test_validator_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_chrome_trace({"traceEvents": [{"name": "a", "ph": "B"}]})

    def test_validator_allows_backdated_instants(self):
        tr = Tracer()
        tr.add_launch("a", 10)
        tr.sim_instant("late", -5)  # inside the already-closed launch
        validate_chrome_trace(tr.chrome_trace())

    def test_export_chrome_writes_file(self, tmp_path):
        tr = Tracer()
        with tr.span("s"):
            pass
        path = tmp_path / "trace.json"
        tr.export_chrome(str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == 2

    def test_null_tracer_span_is_reused(self):
        tr = NullTracer()
        assert tr.span("a") is tr.span("b")
        with tr.span("a"):
            pass
        assert tr.chrome_trace() == {"traceEvents": []}


class TestObserveContext:
    def test_defaults_are_null(self):
        assert obs.tracer() is obs.NULL_TRACER
        assert obs.metrics() is obs.NULL_REGISTRY
        assert not obs.enabled()

    def test_observe_installs_and_restores(self):
        with obs.observe() as ob:
            assert obs.tracer() is ob.tracer
            assert obs.metrics() is ob.registry
            assert obs.enabled()
        assert obs.tracer() is obs.NULL_TRACER
        assert obs.metrics() is obs.NULL_REGISTRY

    def test_observe_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.observe():
                raise RuntimeError("boom")
        assert not obs.enabled()

    def test_micro_flag_propagates(self):
        with obs.observe(micro=True) as ob:
            assert ob.tracer.micro


class TestLogging:
    def test_get_logger_namespaces(self):
        assert obs.get_logger("repro.sim.x").name == "repro.sim.x"
        assert obs.get_logger("sim.x").name == "repro.sim.x"


def _mttkrp_once(acc, tensor, rank=8, seed=0):
    rng = make_rng(seed)
    b = rng.random((tensor.shape[1], rank))
    c = rng.random((tensor.shape[2], rank))
    return acc.run_mttkrp(tensor, b, c, mode=0)


class TestInstrumentedSimulator:
    def test_reports_bit_identical_with_observers_on(self):
        tensor = random_tensor(seed=7)
        r_off = _mttkrp_once(Tensaurus(TensaurusConfig()), tensor)
        with obs.observe():
            r_on = _mttkrp_once(Tensaurus(TensaurusConfig()), tensor)
        assert r_on.cycles == r_off.cycles
        assert r_on.ops == r_off.ops
        assert r_on.detail == r_off.detail
        assert np.allclose(r_on.output, r_off.output)

    @pytest.mark.parametrize("observer", ["probe", "requests"])
    def test_probe_or_request_tracer_alone_leaves_reports_plain(
        self, observer
    ):
        """Phase cycles are for the span tracer and the metrics registry:
        a chaos probe or a request tracer installed alone reads none, so
        its launches leave ``SimReport`` as a plain run leaves it."""
        tensor = random_tensor(shape=(30, 20, 10), seed=2)
        plain = _mttkrp_once(Tensaurus(TensaurusConfig()), tensor)
        with obs.observe(
            obs.NULL_TRACER, obs.NULL_REGISTRY, **{observer: True}
        ):
            watched = _mttkrp_once(Tensaurus(TensaurusConfig()), tensor)
        assert plain.phase_cycles is None
        assert watched.phase_cycles is None
        assert watched.cycles == plain.cycles

    def test_phase_cycles_reconcile_with_reports(self):
        tensor = random_tensor(seed=3)
        with obs.observe() as ob:
            run = accelerated_cp_als(
                tensor, rank=4, num_iters=2, seed=1,
                accelerator=Tensaurus(TensaurusConfig()),
            )
            snap = ob.registry.snapshot()
            trace = ob.tracer.chrome_trace()
        total = sum(r.cycles for r in run.reports)
        assert snap["sim.phase_cycles"]["value"] == total
        assert snap["sim.cycles"]["value"] == total
        assert snap["sim.launches"]["value"] == len(run.reports)
        assert snap["sim.ops"]["value"] == sum(r.ops for r in run.reports)
        validate_chrome_trace(trace)
        # The cycle track's launch spans cover exactly the report cycles.
        launches = [
            e for e in trace["traceEvents"]
            if e["cat"] == "sim.launch" and e["ph"] == "B"
        ]
        assert len(launches) == len(run.reports)

    def test_registry_reconciles_with_timeline(self):
        tensor = random_tensor(seed=5)
        with obs.observe() as ob:
            acc = Tensaurus(TensaurusConfig())
            timeline = Timeline(peak_gops=acc.config.peak_gops)
            for i in range(3):
                timeline.add(f"launch{i}", _mttkrp_once(acc, tensor, seed=i))
            snap = ob.registry.snapshot()
        total_cycles = sum(e.report.cycles for e in timeline.entries)
        assert snap["sim.cycles"]["value"] == total_cycles
        assert snap["sim.launches"]["value"] == len(timeline.entries)
        assert (
            snap["sim.bytes"]["value"]
            == sum(e.report.total_bytes for e in timeline.entries)
        )

    def test_faulted_run_records_recovery_phase(self):
        from repro.sim import FaultPlan

        tensor = random_tensor(seed=11, density=0.3)
        plan = FaultPlan(seed=3, spm_bitflip_rate=1e-3, hbm_stall_rate=0.2)
        with obs.observe() as ob:
            acc = Tensaurus(TensaurusConfig(), fault_plan=plan)
            report = _mttkrp_once(acc, tensor)
            snap = ob.registry.snapshot()
        assert snap["sim.phase_cycles"]["value"] == report.cycles
        if report.recovery_cycles:
            recovery = snap["sim.phase_cycles"]["children"].get(
                "spmttkrp|recovery", 0
            )
            assert recovery == report.recovery_cycles
            assert snap["sim.fault.recovery_cycles"]["value"] == report.recovery_cycles

    def test_encoding_cache_metrics(self):
        tensor = random_tensor(seed=9)
        with obs.observe() as ob:
            acc = Tensaurus(TensaurusConfig())
            _mttkrp_once(acc, tensor)
            _mttkrp_once(acc, tensor)
            snap = ob.registry.snapshot()
        info = acc.cache_info()
        assert snap["cache.encoding"]["children"].get("hit", 0) == info["hits"]
        assert snap["cache.encoding"]["children"].get("miss", 0) == info["misses"]

    def test_reset_cache_stats_keeps_entries(self):
        tensor = random_tensor(seed=9)
        acc = Tensaurus(TensaurusConfig())
        _mttkrp_once(acc, tensor)
        _mttkrp_once(acc, tensor)
        before = acc.cache_info()
        assert before["hits"] > 0 and before["entries"] > 0
        acc.reset_cache_stats()
        info = acc.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["entries"] == before["entries"]
        # Re-running after the reset hits the still-resident encodings.
        _mttkrp_once(acc, tensor)
        assert acc.cache_info()["hits"] > 0
        assert acc.cache_info()["misses"] == 0

    def test_micro_mode_trace_validates(self):
        tensor = random_tensor(seed=13)
        with obs.observe(micro=True) as ob:
            _mttkrp_once(Tensaurus(TensaurusConfig()), tensor)
            trace = ob.tracer.chrome_trace()
        validate_chrome_trace(trace)

    def test_micro_mode_emits_pe_and_ciss_instants(self):
        # A PE lane emits one ``pe.<event>`` instant per entry of the trace
        # list it fills, at the same cycle; the event engine emits one
        # ``ciss.entry`` instant per CISS entry, at its issue cycle.
        from repro.formats import CISSTensor
        from repro.sim import EventDrivenTensaurus
        from repro.sim.costs import kernel_costs
        from repro.sim.pe import PELane

        tensor = random_tensor(seed=13)
        cfg = TensaurusConfig(rows=3)
        ciss = CISSTensor.from_sparse(tensor, cfg.rows)
        costs = kernel_costs("spmttkrp", cfg, fiber_elems=4)
        rng = make_rng(2)
        c = rng.random((tensor.shape[2], 4))
        b = rng.random((tensor.shape[1], 4))
        out_shape = (tensor.shape[0], 4)
        trace = []
        PELane(costs, c, b).run_stream(ciss, 1, np.zeros(out_shape), trace=trace)
        assert trace
        with obs.observe(micro=True) as ob:
            PELane(costs, c, b).run_stream(ciss, 1, np.zeros(out_shape))
            instants = [e for e in ob.tracer.events if e["ph"] == "i"]
        assert [
            (e["ts"], e["name"], e["args"]["detail"]) for e in instants
        ] == [(float(cyc), f"pe.{event}", d) for cyc, event, d in trace]

        with obs.observe(micro=True) as ob:
            res = EventDrivenTensaurus(cfg, costs, c, b).run(ciss, out_shape)
            instants = [e for e in ob.tracer.events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["ciss.entry"] * ciss.num_entries
        assert [e["args"]["entry"] for e in instants] == list(
            range(ciss.num_entries)
        )
        stamps = [e["ts"] for e in instants]
        assert stamps == sorted(set(stamps)) and stamps[-1] < res.cycles


class TestHistogramQuantiles:
    def _hist(self, values, buckets=(0.01, 0.1, 1.0)):
        reg = MetricsRegistry()
        h = reg.histogram("h", "test", buckets=buckets)
        for v in values:
            h.observe(v)
        return h

    def test_quantile_validates_range(self):
        h = self._hist([0.05])
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_empty_histogram_has_no_quantiles(self):
        h = self._hist([])
        assert h.quantile(0.5) is None
        assert h.quantiles() == {"p50": None, "p90": None, "p99": None}

    def test_quantiles_clamped_to_observed_extremes(self):
        h = self._hist([0.05] * 10)
        # Interpolation inside the (0.01, 0.1] bucket can't escape the
        # observed min/max.
        assert h.quantile(0.0) == pytest.approx(0.05)
        assert h.quantile(1.0) == pytest.approx(0.05)
        assert 0.01 <= h.quantile(0.5) <= 0.1

    def test_quantile_orders_buckets(self):
        h = self._hist([0.005] * 50 + [0.5] * 50)
        assert h.quantile(0.25) <= 0.01
        assert h.quantile(0.75) > 0.1

    def test_overflow_bucket_returns_max(self):
        h = self._hist([0.005, 5.0, 9.0])
        assert h.quantile(0.99) == pytest.approx(9.0)

    def test_snapshot_and_render_carry_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.01, 0.1))
        for v in (0.005, 0.05, 0.2):
            h.observe(v)
        snap = reg.snapshot()
        q = snap["lat"]["value"]["quantiles"]
        assert set(q) == {"p50", "p90", "p99"}
        assert (
            json.loads(reg.to_json())["lat"]["value"]["quantiles"] == q
        )


class TestTracerBind:
    def test_bind_merges_and_restores(self):
        tr = Tracer()
        with tr.bind(shard=1):
            tr.add_launch("work", 100)
            with tr.bind(shard=2, replica=0):
                tr.add_launch("inner", 100)
            tr.add_launch("after", 100, args={"nnz": 9})
        tr.add_launch("unbound", 100)
        begins = {
            e["name"]: e.get("args", {})
            for e in tr.chrome_trace()["traceEvents"]
            if e["ph"] == "B" and e["cat"] == "sim.launch"
        }
        assert begins["work"] == {"shard": 1}
        assert begins["inner"] == {"shard": 2, "replica": 0}
        # Explicit args win on collision but keep the bound context.
        assert begins["after"] == {"shard": 1, "nnz": 9}
        assert begins["unbound"] == {}

    def test_null_tracer_bind_is_noop(self):
        tr = NullTracer()
        with tr.bind(shard=1):
            pass
