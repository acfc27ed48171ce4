"""Unit + property tests for the DES kernel (S12)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start=100.0)
        seen = []
        sim.schedule_at(150.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [150.0]

    def test_scheduling_into_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_zero_delay_event_fires_at_same_time(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: log.append(sim.now)))
        sim.run()
        assert log == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(handle)
        sim.run()
        assert log == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.cancel(handle)
        assert sim.pending() == 1


class TestRunUntil:
    def test_runs_inclusive_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append(5))
        sim.schedule(10.0, lambda: log.append(10))
        sim.schedule(10.5, lambda: log.append(10.5))
        sim.run_until(10.0)
        assert log == [5, 10]
        assert sim.now == 10.0

    def test_clock_lands_on_horizon_with_no_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_remaining_events_still_pending(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run_until(50.0)
        assert sim.pending() == 1

    def test_run_max_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending() == 6
        assert sim.run(max_events=0) == 0
        assert sim.pending() == 6


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start_delay(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_delay=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_firings(self):
        sim = Simulator()
        task = sim.every(10.0, lambda: None)
        sim.schedule(25.0, task.stop)
        sim.run_until(100.0)
        assert task.firings == 2

    def test_callback_may_stop_its_own_task(self):
        sim = Simulator()
        fired = []

        def once():
            fired.append(sim.now)
            task.stop()

        task = sim.every(5.0, once)
        sim.run_until(50.0)
        assert fired == [5.0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0.0, lambda: None)


class TestCausalityProperty:
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_processing_order_is_nondecreasing(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.events_processed == len(delays)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nested_scheduling_preserves_causality(self, pairs):
        sim = Simulator()
        seen = []
        for first, second in pairs:
            sim.schedule(
                first,
                lambda d=second: sim.schedule(d, lambda: seen.append(sim.now)),
            )
        sim.run()
        assert seen == sorted(seen)
