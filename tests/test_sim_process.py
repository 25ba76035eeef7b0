"""Unit tests for the timer and the tick process."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Timer, TrainProcess


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_timer_passes_arguments(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda x: seen.append(x), 42)
        timer.start(1.0)
        sim.run()
        assert seen == [42]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent_and_skips_the_entry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.cancel()
        timer.cancel()
        assert not timer.armed
        sim.run()
        assert sim.events_processed == 0

    def test_restart_supersedes_previous_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.restart(5.0)
        sim.run()
        assert fired == [5.0]

    def test_armed_and_expires_at(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.expires_at is None
        timer.start(2.0)
        assert timer.armed
        assert timer.expires_at == 2.0
        sim.run()
        assert not timer.armed

    def test_timer_can_be_reused_after_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]


class TestTrainProcessAsRecurringJob:
    """A recurring job ticks on :class:`TrainProcess` at its default
    ``max_train = 1``: one call per tick.  Restart after a stop and the
    batched tick times are covered in
    ``tests/test_fast_path.py::TestBatchedProcess``."""

    def test_default_is_one_tick_per_call_at_a_fixed_interval(self):
        sim = Simulator()
        calls = []
        TrainProcess(sim, 1.0, lambda count: calls.append((sim.now, count))).start()
        sim.run(until=3.5)
        assert calls == [(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1)]

    def test_start_delay_offsets_first_tick(self):
        sim = Simulator()
        times = []
        process = TrainProcess(sim, 1.0, lambda count: times.append(sim.now),
                               start_delay=0.5)
        process.start()
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_max_ticks_terminates_the_process(self):
        sim = Simulator()
        process = TrainProcess(sim, 1.0, lambda count: None, max_ticks=3)
        process.start()
        sim.run(until=100.0)
        assert process.ticks == 3
        assert not process.running

    def test_callback_returning_false_stops(self):
        sim = Simulator()
        count = []

        def tick(ticks):
            count.append(ticks)
            return len(count) < 2

        process = TrainProcess(sim, 1.0, tick)
        process.start()
        sim.run(until=10.0)
        assert count == [1, 1]
        assert not process.running

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        times = []
        process = TrainProcess(sim, 1.0, lambda count: times.append(sim.now))
        process.start()
        sim.call_at(2.5, process.stop)
        sim.run(until=10.0)
        assert times == [0.0, 1.0, 2.0]

    def test_start_is_idempotent(self):
        sim = Simulator()
        times = []
        process = TrainProcess(sim, 1.0, lambda count: times.append(sim.now))
        process.start()
        process.start()
        sim.run(until=1.5)
        assert times == [0.0, 1.0]

    def test_horizon_takes_a_tick_at_exactly_the_horizon_and_stops(self):
        sim = Simulator()
        times = []
        process = TrainProcess(sim, 0.5, lambda count: times.append(sim.now),
                               horizon=1.0)
        process.start()
        sim.run(until=5.0)
        assert times == [0.0, 0.5, 1.0]
        assert not process.running and sim.pending_events == 0

    @pytest.mark.parametrize("start_delay", [-1.0, -1e-9])
    def test_negative_start_delay_is_refused(self, start_delay):
        with pytest.raises(ValueError, match="start_delay"):
            TrainProcess(Simulator(), 1.0, lambda count: None,
                         start_delay=start_delay)

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="interval"):
            TrainProcess(sim, 0.0, lambda count: None)
        with pytest.raises(ValueError, match="interval"):
            TrainProcess(sim, -1.0, lambda count: None)
