"""Unit tests for the discrete-event engine."""

import dis
import sys
import types

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Timer


class TestScheduling:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_clock_starts_at_custom_time(self):
        sim = Simulator(start_time=5.0)
        assert sim.now == 5.0

    def test_schedule_fire_fires_callback_after_delay(self):
        sim = Simulator(start_time=1.0)
        fired = []
        sim.schedule_fire(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.5]

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

    def test_call_at_clamps_a_rounding_error_to_the_clock(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.call_at(10.0 - 1e-13, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_at(3.0, lambda: order.append("c"))
        sim.call_at(1.0, lambda: order.append("a"))
        sim.call_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, lambda: order.append("first"))
        sim.call_at(1.0, lambda: order.append("second"))
        sim.call_at(1.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callback_arguments_are_passed(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda a, b: seen.append((a, b)), 7, "x")
        sim.run()
        assert seen == [(7, "x")]

    def test_events_scheduled_from_callbacks_fire(self):
        sim = Simulator()
        fired = []

        def outer():
            sim.call_at(sim.now + 1.0, lambda: fired.append(sim.now))

        sim.call_at(1.0, outer)
        sim.run()
        assert fired == [2.0]


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("early"))
        sim.call_at(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_run_until_includes_events_at_exactly_until(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append("edge"))
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_run_advances_clock_to_until_when_heap_drains(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_remaining_events_fire_on_second_run(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.call_at(delay, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_at(1.0, nested)
        sim.run()


class TestEventsProcessedIsExact:
    """``events_processed`` counts every fired event, whichever way a run
    ends; cancelled events never count."""

    def _schedule(self, sim, fired):
        for when in (1.0, 2.0, 3.0, 4.0):
            sim.call_at(when, fired.append, when)
        timer = Timer(sim, fired.append, "cancelled")
        timer.start(2.5)
        timer.cancel()
        sim.fire_at(3.5, fired.append, 3.5)

    def test_horizon(self):
        sim, fired = Simulator(), []
        self._schedule(sim, fired)
        assert sim.run(until=3.0) == 3.0
        assert sim.events_processed == len(fired) == 3
        assert sim.run(until=3.5) == 3.5
        assert sim.events_processed == len(fired) == 4
        sim.run()
        assert sim.events_processed == len(fired) == 5

    def test_cancelled_timer_entry_is_held_until_popped(self):
        sim, fired = Simulator(), []
        self._schedule(sim, fired)
        assert sim.pending_events == 6
        # The loop pops the cancelled 2.5 entry on its way to the first
        # entry past the horizon, drops it and puts 3.0 back.
        sim.run(until=2.0)
        assert (sim.pending_events, sim.events_processed) == (3, 2)

    def test_callback_that_raises(self):
        sim, fired = Simulator(), []
        self._schedule(sim, fired)

        def boom():
            raise RuntimeError("boom")

        sim.call_at(2.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # The raising event fired: it counts, like the two before it.
        assert sim.events_processed == len(fired) + 1 == 3
        assert sim.now == 2.0
        sim.run()
        assert sim.events_processed == len(fired) + 1 == 6


class TestArgumentSlots:
    """An entry holds two argument slots; a callback of three or more
    arguments is folded into one callable when it is pushed.  Whatever the
    arity and whichever method pushed it, the callback receives exactly
    what was passed, in push order at equal times."""

    ARGS = [(), (None,), ("a",), (None, None), (1, None), (None, 2),
            ("w", "x", "y", "z"), (None, None, None, None)]

    def _push_all(self, sim, when, seen):
        expected = []
        for method in ("call_at", "schedule_fire", "fire_at"):
            for args in self.ARGS:
                tag = (method, args)

                def record(*received, tag=tag):
                    seen.append((tag, received))

                # schedule_fire takes a delay; the clock is at 0.
                getattr(sim, method)(when, record, *args)
                expected.append((tag, args))
        return expected

    def test_each_callback_receives_what_was_passed_in_push_order(self):
        sim, seen = Simulator(), []
        expected = self._push_all(sim, 1.0, seen)
        sim.run()
        assert seen == expected
        assert sim.events_processed == len(expected) == 24

    def test_arities_interleave_in_time_order(self):
        sim, seen = Simulator(), []
        for step, args in enumerate(self.ARGS):
            sim.fire_at(1.0 - step * 0.1, lambda *got: seen.append(got), *args)
        sim.run()
        assert seen == self.ARGS[::-1]
        assert sim.events_processed == len(self.ARGS)

    def test_cancelled_timer_is_skipped_and_not_counted(self):
        sim, seen = Simulator(), []
        timer = Timer(sim, seen.append, "cancelled")
        timer.start(1.0)
        sim.fire_at(1.0, seen.append, "kept")
        timer.cancel()
        sim.run()
        assert seen == ["kept"]
        assert (sim.events_processed, sim.pending_events) == (1, 0)

    def test_cancelled_timer_past_the_horizon_is_dropped(self):
        sim, seen = Simulator(), []
        timer = Timer(sim, seen.append, "cancelled")
        timer.start(5.0)
        timer.cancel()
        sim.fire_at(6.0, seen.append, None)
        assert sim.run(until=2.0) == 2.0
        # The cancelled entry was popped and dropped; the live one past the
        # horizon went back on the heap.
        assert (seen, sim.events_processed, sim.pending_events) == ([], 0, 1)
        sim.run()
        assert (seen, sim.events_processed) == ([None], 1)


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info < (3, 11),
                    reason="adaptive bytecode is CPython 3.11+")
def test_event_loop_is_specialized_within_one_run():
    """CPython specializes a code object only after it warms up, and on
    3.11 only a function entry or a backward jump warms it: a loop whose
    iterations end in neither runs every event on generic bytecode.  A
    fresh copy of ``run``, entered once over 1,000 entries, must come out
    holding specialized instructions (opnames ``dis.opmap`` does not
    list)."""
    run = Simulator.run
    fresh = types.FunctionType(run.__code__.replace(), run.__globals__,
                               run.__name__, run.__defaults__,
                               run.__closure__)
    sim, seen = Simulator(), []
    for i in range(1000):
        args = ((), (i,), (i, i))[i % 3]
        sim.fire_at(i * 1e-3, lambda *got: seen.append(got), *args)
    fresh(sim)
    assert len(seen) == sim.events_processed == 1000
    specialized = {instruction.opname for instruction
                   in dis.get_instructions(fresh, adaptive=True)} - set(dis.opmap)
    assert specialized, "Simulator.run ran 1,000 events on generic bytecode"


class TestCancelHeavyRunEquivalence:
    """A cancel-heavy run fires exactly what the same schedule fires when
    the cancelled timers were never started: a cancelled entry changes
    neither the order, the clock nor the event count of the survivors."""

    @staticmethod
    def _run(cancel):
        sim, fired = Simulator(), []
        timers = []
        # Interleave survivors and victims across a wide time range, then
        # cancel in waves while live entries remain buried in the heap.
        for i in range(600):
            if cancel or i >= 450:
                timer = Timer(sim, fired.append, i)
                timer.start(1.0 + (i % 97) * 0.01 + i * 1e-6)
                timers.append(timer)
        if cancel:
            for wave in range(3):
                for timer in timers[wave * 150:(wave + 1) * 150]:
                    timer.cancel()
        sim.run()
        return sim, fired

    def test_cancel_heavy_run_equals_the_run_without_the_cancelled_timers(self):
        cancelling, fired = self._run(cancel=True)
        plain, expected = self._run(cancel=False)
        assert len(expected) == 150
        assert fired == expected
        assert cancelling.now == plain.now

    def test_cancelled_timers_are_not_counted_as_processed(self):
        sim, fired = self._run(cancel=True)
        assert sim.events_processed == len(fired) == 150
        assert sim.pending_events == 0
