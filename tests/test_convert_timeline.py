"""Tests for the execution timeline."""

import pytest

from repro.sim import Tensaurus, Timeline
from repro.util.errors import ConfigError

from tests.conftest import random_tensor


class TestTimeline:
    @pytest.fixture
    def timeline(self, rng):
        acc = Tensaurus()
        t = random_tensor(shape=(40, 30, 20), density=0.1, seed=95)
        tl = Timeline(peak_gops=acc.config.peak_gops)
        for mode in range(3):
            rest = [m for m in range(3) if m != mode]
            b = rng.random((t.shape[rest[0]], 16))
            c = rng.random((t.shape[rest[1]], 16))
            rep = acc.run_mttkrp(t, b, c, mode=mode, compute_output=False)
            tl.add(f"mttkrp-m{mode}", rep)
        return tl

    def test_entries_are_back_to_back(self, timeline):
        for prev, nxt in zip(timeline.entries, timeline.entries[1:]):
            assert nxt.start_s == pytest.approx(prev.end_s)

    def test_totals(self, timeline):
        assert timeline.total_seconds == pytest.approx(
            sum(e.report.time_s for e in timeline.entries)
        )
        assert timeline.total_ops == sum(e.report.ops for e in timeline.entries)
        assert timeline.total_energy_j > 0
        assert 0 < timeline.average_utilization <= 1

    def test_bottleneck(self, timeline):
        worst = timeline.bottleneck()
        assert worst.report.time_s == max(
            e.report.time_s for e in timeline.entries
        )

    def test_by_kernel(self, timeline):
        per = timeline.by_kernel()
        assert set(per) == {"spmttkrp"}
        assert per["spmttkrp"] == pytest.approx(timeline.total_seconds)

    def test_render(self, timeline):
        text = timeline.render()
        assert "mttkrp-m0" in text
        assert "total:" in text and "GOP/s" in text

    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.total_seconds == 0.0
        assert tl.bottleneck() is None
        assert tl.average_gops == 0.0

    def test_bad_peak(self):
        tl = Timeline(peak_gops=0.0)
        with pytest.raises(ConfigError):
            _ = tl.average_utilization
