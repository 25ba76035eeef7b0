"""Unit tests for timers and periodic processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess, Timer


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


class TestPeriodicProcess:
    def test_fires_at_fixed_interval(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=3.5)
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_start_delay_offsets_first_tick(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now), start_delay=0.5)
        process.start()
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_max_ticks_terminates_the_process(self):
        sim = Simulator()
        process = PeriodicProcess(sim, 1.0, lambda: None, max_ticks=3)
        process.start()
        sim.run(until=100.0)
        assert process.ticks == 3
        assert not process.running

    def test_callback_returning_false_stops(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            return len(count) < 2

        process = PeriodicProcess(sim, 1.0, tick)
        process.start()
        sim.run(until=10.0)
        assert len(count) == 2

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.schedule(2.5, process.stop)
        sim.run(until=10.0)
        assert times == [0.0, 1.0, 2.0]

    def test_start_is_idempotent(self):
        sim = Simulator()
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        process.start()
        sim.run(until=1.5)
        assert times == [0.0, 1.0]

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicProcess(sim, -1.0, lambda: None)
