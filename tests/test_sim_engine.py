"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_clock_starts_at_custom_time(self):
        sim = Simulator(start_time=5.0)
        assert sim.now == 5.0

    def test_schedule_fires_callback_at_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_call_at_fires_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.schedule(1.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callback_arguments_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b=None: seen.append((a, b)), 7, b="x")
        sim.run()
        assert seen == [(7, "x")]

    def test_events_scheduled_from_callbacks_fire(self):
        sim = Simulator()
        fired = []

        def outer():
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.active

    def test_drain_cancels_everything(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: fired.append(1))
        cancelled = sim.drain()
        sim.run()
        assert cancelled == 3
        assert fired == []


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_run_until_includes_events_at_exactly_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("edge"))
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_run_advances_clock_to_until_when_heap_drains(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_remaining_events_fire_on_second_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_max_events_bounds_the_run(self):
        sim = Simulator()
        fired = []
        for delay in range(1, 11):
            sim.schedule(float(delay), lambda: fired.append(1))
        sim.run(max_events=4)
        assert len(fired) == 4

    def test_max_events_stop_leaves_the_clock_at_the_last_event(self):
        sim = Simulator()
        fired = []
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, lambda: fired.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.run(until=10.0) == 10.0
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_stop_past_the_last_due_event_advances_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 10.0

    def test_stop_ends_run_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()


class TestEventRepr:
    def test_event_repr_mentions_state(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None, name="my-event")
        assert "my-event" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)


class TestCompactionResultEquivalence:
    """A cancel-heavy run that triggers heap compaction must produce results
    identical to the same schedule on a simulator that never compacts."""

    def _cancel_heavy_run(self, compact_min_heap=None):
        sim = (Simulator() if compact_min_heap is None
               else Simulator(compact_min_heap=compact_min_heap))
        fired = []
        events = []
        # Interleave survivors and victims across a wide time range, then
        # cancel in waves so the cancelled majority trips the threshold
        # repeatedly while live events remain buried in the heap.
        for i in range(600):
            events.append(sim.schedule(1.0 + (i % 97) * 0.01 + i * 1e-6,
                                       fired.append, i))
        for wave in range(3):
            for event in events[wave * 150:(wave + 1) * 150]:
                event.cancel()
        sim.run()
        return sim, fired

    def test_cancel_heavy_run_compacts_at_least_once(self):
        sim, _ = self._cancel_heavy_run()
        assert sim.heap_compactions >= 1

    def test_compacting_and_non_compacting_runs_agree_exactly(self):
        compacting, fired = self._cancel_heavy_run()
        # A threshold above the heap size disables compaction entirely.
        inert, expected = self._cancel_heavy_run(compact_min_heap=10_000)
        assert compacting.heap_compactions >= 1
        assert inert.heap_compactions == 0
        assert fired == expected
        assert compacting.events_processed == inert.events_processed
        assert compacting.now == inert.now

    def test_instance_threshold_overrides_module_default(self):
        sim = Simulator(compact_min_heap=4)
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        for event in events[:6]:
            event.cancel()
        assert sim.heap_compactions >= 1
