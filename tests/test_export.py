"""Tests for OpenMetrics export (:mod:`repro.obs.export`).

The exposition writer is validated against its own *strict* parser: every
emitted page must parse, every parser error case must be rejected with a
line number, and a live fleet registry must round-trip value-for-value.
"""


import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.export import (
    escape_label_value,
    metric_name,
    parse_openmetrics,
    roundtrip,
    to_openmetrics,
)


def _registry():
    reg = MetricsRegistry()
    reg.counter("requests", "total requests").inc(7)
    c = reg.counter("cache.events", "cache events", ("outcome",))
    c.labels(outcome="hit").inc(3)
    c.labels(outcome="miss").inc(2)
    reg.gauge("queue.depth", "queue depth").set(4)
    h = reg.histogram("latency.s", "latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 2.0):
        h.observe(v)
    return reg


class TestExposition:
    def test_names_and_labels_sanitized(self):
        assert metric_name("cache.events") == "cache_events"
        assert metric_name("a-b c") == "a_b_c"
        assert escape_label_value('say "hi"\n\\') == 'say \\"hi\\"\\n\\\\'

    def test_counter_family(self):
        text = to_openmetrics(_registry().snapshot())
        assert "# TYPE requests counter" in text
        assert "requests_total 7" in text
        assert 'cache_events_total{outcome="hit"} 3' in text
        assert text.endswith("# EOF\n")

    def test_histogram_is_cumulative(self):
        text = to_openmetrics(_registry().snapshot())
        fams = parse_openmetrics(text)
        samples = {
            (suffix, tuple(sorted(labels.items()))): value
            for suffix, labels, value in fams["latency_s"]["samples"]
        }
        assert samples[("_bucket", (("le", "0.01"),))] == 1
        assert samples[("_bucket", (("le", "0.1"),))] == 3
        assert samples[("_bucket", (("le", "1.0"),))] == 4
        assert samples[("_bucket", (("le", "+Inf"),))] == 5
        assert samples[("_count", ())] == 5
        assert samples[("_sum", ())] == pytest.approx(2.605)

    def test_help_text_included(self):
        text = to_openmetrics(
            _registry().snapshot(), help_texts={"requests": "total requests"}
        )
        assert "# HELP requests total requests" in text


class TestStrictParser:
    def test_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_rejects_content_after_eof(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE a counter\na_total 1\n# EOF\nx 1\n")

    def test_rejects_bad_counter_suffix(self):
        with pytest.raises(ValueError, match="suffix"):
            parse_openmetrics("# TYPE a counter\na 1\n# EOF\n")

    def test_rejects_sample_before_type(self):
        with pytest.raises(ValueError):
            parse_openmetrics("a_total 1\n# TYPE a counter\n# EOF\n")

    def test_rejects_duplicate_series(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_openmetrics(
                "# TYPE a counter\na_total 1\na_total 2\n# EOF\n"
            )

    def test_rejects_non_monotonic_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="monotonic|cumulative"):
            parse_openmetrics(text)

    def test_rejects_bad_label_syntax(self):
        with pytest.raises(ValueError):
            parse_openmetrics('# TYPE a counter\na_total{oops} 1\n# EOF\n')

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_openmetrics("# TYPE a counter\nnot a sample\n# EOF\n")


class TestRoundTrip:
    def test_synthetic_registry(self):
        text = roundtrip(_registry().snapshot())
        assert text.endswith("# EOF\n")

    def test_live_fleet_registry(self):
        from repro.serving import (
            FleetConfig, TensaurusFleet, WorkloadPool, synthetic_trace,
        )

        pool = WorkloadPool(seed=7, variants=2)
        trace = synthetic_trace(
            pool, duration_s=0.2, base_rate=100.0, spike_factor=3.0,
            deadline_s=0.05, seed=7,
        )
        cfg = FleetConfig(seed=7, shards=2, replicas_per_shard=2,
                          queue_depth=64)
        with obs.observe() as ob:
            TensaurusFleet(cfg, pool=pool).run_trace(trace)
        text = roundtrip(ob.registry.snapshot())
        fams = parse_openmetrics(text)
        assert "fleet_admitted" in fams

