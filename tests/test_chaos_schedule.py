"""Chaos schedules: typed events, FaultPlan compilation, serialization."""

import pytest

from repro.chaos.schedule import (
    BREAKER_STORM,
    EVENT_KINDS,
    ChaosEvent,
    ChaosSchedule,
    ScheduleGenerator,
)
from repro.sim.faults import HBM_OUTAGE, LAUNCH_ABORT, SHARD_KILL, FaultPlan
from repro.util.errors import ConfigError


class TestChaosEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            ChaosEvent("cosmic_ray", 0.5)

    def test_rejects_out_of_range_time_and_magnitude(self):
        with pytest.raises(ConfigError):
            ChaosEvent(HBM_OUTAGE, 1.5)
        with pytest.raises(ConfigError):
            ChaosEvent(HBM_OUTAGE, 0.5, magnitude=-0.1)

    def test_json_round_trip(self):
        ev = ChaosEvent(SHARD_KILL, 0.25, target=2)
        assert ChaosEvent.from_json(ev.to_json()) == ev


class TestChaosSchedule:
    def make(self):
        return ChaosSchedule(
            seed=42,
            events=(
                ChaosEvent(SHARD_KILL, 0.3, target=1),
                ChaosEvent(HBM_OUTAGE, 0.1, magnitude=0.2),
                ChaosEvent(LAUNCH_ABORT, 0.5, magnitude=0.1),
                ChaosEvent(BREAKER_STORM, 0.6, magnitude=0.5),
            ),
        )

    def test_json_round_trip_exact(self):
        sched = self.make()
        assert ChaosSchedule.from_json(sched.to_json()) == sched

    def test_from_json_rejects_unknown_fields(self):
        data = self.make().to_json()
        data["warp_factor"] = 9
        with pytest.raises(ConfigError):
            ChaosSchedule.from_json(data)

    def test_digest_is_content_addressed(self):
        a, b = self.make(), self.make()
        assert a.digest() == b.digest()
        assert a.with_events(a.events[:-1]).digest() != a.digest()

    def test_fault_plan_compilation(self):
        plan = self.make().fault_plan()
        assert plan.forced_shard_kills == ((1, 0.3),)
        assert plan.hbm_outage_rate == pytest.approx(0.2)
        # Launch aborts and breaker storms hazard-combine.
        assert plan.launch_abort_rate == pytest.approx(
            1 - (1 - 0.1) * (1 - 0.5)
        )
        assert plan.seed == 42

    def test_first_kill_per_target_wins(self):
        sched = ChaosSchedule(
            seed=1,
            events=(
                ChaosEvent(SHARD_KILL, 0.7, target=0),
                ChaosEvent(SHARD_KILL, 0.2, target=0),
            ),
        )
        assert sched.fault_plan().forced_shard_kills == ((0, 0.2),)

    def test_kill_target_wraps_to_shard_count(self):
        sched = ChaosSchedule(
            seed=1, shards=3,
            events=(ChaosEvent(SHARD_KILL, 0.4, target=7),),
        )
        assert sched.fault_plan().forced_shard_kills == ((1, 0.4),)

    def test_needs_two_shards(self):
        with pytest.raises(ConfigError):
            ChaosSchedule(seed=0, shards=1)


class TestScheduleGenerator:
    def test_generate_is_pure_in_seed_and_index(self):
        a = ScheduleGenerator(seed=11).generate(3)
        b = ScheduleGenerator(seed=11).generate(3)
        assert a == b
        assert ScheduleGenerator(seed=12).generate(3) != a

    def test_event_count_within_bounds(self):
        gen = ScheduleGenerator(seed=5, min_events=2, max_events=6)
        for i in range(30):
            assert 2 <= gen.generate(i).event_count <= 6

    def test_event_kinds_are_valid_and_sorted(self):
        gen = ScheduleGenerator(seed=7)
        for i in range(20):
            sched = gen.generate(i)
            assert all(ev.kind in EVENT_KINDS for ev in sched.events)
            ats = [ev.at for ev in sched.events]
            assert ats == sorted(ats)

    def test_never_kills_every_shard(self):
        gen = ScheduleGenerator(seed=13, shards=3)
        for i in range(60):
            kills = {
                ev.target for ev in gen.generate(i).events
                if ev.kind == SHARD_KILL
            }
            assert len(kills) < 3

    def test_sample_matches_generate(self):
        gen = ScheduleGenerator(seed=3)
        assert gen.sample(4, start=2) == [gen.generate(i) for i in (2, 3, 4, 5)]
