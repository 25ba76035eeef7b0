"""Unit tests for the fast-path machinery added by the engine overhaul:

* ``schedule_fire`` / ``fire_at``
* lazy cancellation of timer entries under cancel-heavy load
* :class:`TrainProcess` at ``max_train = 1``: one tick per wakeup, its
  times computed in batches
* ``Packet.clone`` and route-record interning
* the indexed filter table (exact buckets, residual wildcards, expiry heap)
* the profiling helpers behind ``repro profile``
"""

import pytest

from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router.filter_table import FilterTable
from repro.sim.engine import Simulator
from repro.sim.process import Timer, TrainProcess


class TestFastScheduling:
    def test_schedule_fire_entries_fire_without_event_objects(self):
        sim = Simulator()
        seen = []
        sim.schedule_fire(1.0, seen.append, 42)
        sim.fire_at(2.0, seen.append, 43)
        assert sim.pending_events == 2
        sim.run()
        assert seen == [42, 43]
        assert sim.events_processed == 2

    def test_checked_and_unchecked_paths_share_one_sequence(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "call_at")
        sim.schedule_fire(1.0, order.append, "fire")
        sim.fire_at(1.0, order.append, "fire_at")
        sim.run()
        assert order == ["call_at", "fire", "fire_at"]


class TestCancelHeavyLoad:
    """A cancelled :class:`Timer` entry stays in the heap until the loop
    pops it and skips it; the heap is never rebuilt."""

    @staticmethod
    def timers(sim, whens, fired):
        timers = []
        for i, when in enumerate(whens):
            timer = Timer(sim, fired.append, i)
            timer.start(when)
            timers.append(timer)
        return timers

    def test_mass_cancellation_fires_only_the_survivors(self):
        sim = Simulator()
        fired = []
        timers = self.timers(sim, [float(i + 1) for i in range(1000)], fired)
        for timer in timers[:900]:
            timer.cancel()
        assert sim.pending_events == 1000
        sim.run()
        assert fired == list(range(900, 1000))
        assert sim.events_processed == 100
        assert sim.pending_events == 0
        assert sim.heap_compactions == 0

    def test_cancellation_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        timers = self.timers(sim, [float(i + 1) for i in range(200)], fired)
        for i, timer in enumerate(timers):
            if i % 3:
                timer.cancel()
        sim.run()
        assert fired == list(range(0, 200, 3))

    def test_cancel_during_run(self):
        sim = Simulator()
        fired = []
        victims = self.timers(sim, [5.0 + i * 0.001 for i in range(300)], fired)

        def cancel_most():
            for timer in victims[:280]:
                timer.cancel()

        sim.call_at(1.0, cancel_most)
        sim.run()
        assert fired == list(range(280, 300))

    def test_a_timer_restarted_many_times_fires_once_at_its_last_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for delay in range(1, 501):
            timer.restart(float(delay))
        # Every superseded expiry is a cancelled entry left in the heap.
        assert sim.pending_events == 500
        sim.run()
        assert fired == [500.0]
        assert sim.events_processed == 1


class TestBatchedProcess:
    """The per-packet engine's tick process: :class:`TrainProcess` at
    ``max_train = 1`` fires one tick per wakeup from tick times it computes
    a batch at a time."""

    @staticmethod
    def ticking(sim, interval, fired, **kwargs):
        def tick(count):
            assert count == 1
            fired.append(sim.now)
        return TrainProcess(sim, interval, tick, max_train=1, **kwargs)

    def test_tick_times_are_the_successive_addition_recurrence(self):
        expected, when = [], 0.1
        while when <= 100.0:
            expected.append(when)
            when += 0.3
        fired = []
        sim = Simulator()
        self.ticking(sim, 0.3, fired, start_delay=0.1).start()
        sim.run(until=100.0)
        # Bit-identical accumulation, across several computed batches.
        assert len(expected) > 300
        assert fired == expected

    def test_stop_mid_train_silences_remaining_ticks(self):
        sim = Simulator()
        fired = []
        process = self.ticking(sim, 1.0, fired)
        process.start()
        sim.call_at(4.5, process.stop)
        sim.run(until=60.0)
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not process.running

    def test_callback_false_stops(self):
        sim = Simulator()
        process = TrainProcess(sim, 1.0, lambda count: False, max_train=1)
        process.start()
        sim.run(until=30.0)
        assert process.ticks == 1

    def test_max_ticks_bounds_emission(self):
        sim = Simulator()
        fired = []
        process = self.ticking(sim, 1.0, fired, max_ticks=5)
        process.start()
        sim.run(until=100.0)
        assert process.ticks == 5 and len(fired) == 5
        assert not process.running
        assert sim.pending_events == 0

    def test_restart_after_stop(self):
        sim = Simulator()
        fired = []
        process = self.ticking(sim, 1.0, fired)
        process.start()
        sim.call_at(2.5, process.stop)
        sim.call_at(10.0, process.start)
        sim.run(until=12.5)
        assert fired == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrainProcess(sim, 0.0, lambda count: None, max_train=1)
        with pytest.raises(ValueError):
            TrainProcess(sim, 1.0, lambda count: None, max_train=0)


class TestLazyLinkSerializer:
    def test_arrival_at_exact_free_instant_does_not_overtake_queue(self):
        # Regression: a packet offered at exactly t == busy_until while
        # others are queued must serialize behind them, not take the idle
        # bypass (which would both break FIFO and exceed link bandwidth).
        from repro.net.link import Link

        class Sink:
            def __init__(self, name):
                self.name = name
                self.deliveries = []

            def receive_packet(self, packet, link):
                self.deliveries.append((packet.flow_tag, round(link.sim.now, 6)))

        sim = Simulator()
        a, b = Sink("a"), Sink("b")
        # 8 Mbps, 1000-byte packets -> tx = 1 ms per packet; no propagation.
        link = Link(sim, a, b, bandwidth_bps=8e6, delay=0.0)
        src, dst = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.1.1")

        def send(tag):
            link.send(Packet.data(src, dst, flow_tag=tag), a)

        sim.call_at(0.0, send, "A")
        sim.call_at(0.0005, send, "B")
        sim.call_at(0.001, send, "C")  # exactly when A finishes serializing
        sim.run()
        assert b.deliveries == [("A", 0.001), ("B", 0.002), ("C", 0.003)]


class TestPacketClone:
    def test_clone_is_independent(self):
        src, dst = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.1.1")
        template = Packet.data(src, dst, dst_port=80, flow_tag="t")
        template.stamp_route("gw1")
        clone = template.clone()
        assert clone.route_record == []
        assert clone.dst_port == 80 and clone.flow_tag == "t"
        clone.stamp_route("gw2")
        assert template.recorded_path == ("gw1",)

    def test_route_record_stamps_are_interned(self):
        src, dst = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.1.1")
        a, b = Packet.data(src, dst), Packet.data(src, dst)
        a.stamp_route("gw" + "1")
        b.stamp_route("gw" + "1")
        assert a.route_record[0] is b.route_record[0]


class TestIndexedFilterTable:
    def setup_method(self):
        self.clock_now = 0.0
        self.table = FilterTable(capacity=100, clock=lambda: self.clock_now)

    def packet(self, src="10.0.0.1", dst="10.0.1.1", **kwargs):
        return Packet.data(IPAddress.parse(src), IPAddress.parse(dst), **kwargs)

    def test_wildcard_label_matches_via_residual_path(self):
        self.table.install(FlowLabel.from_source("10.0.0.1"), 60.0)
        assert self.table.blocks(self.packet(dst="10.9.9.9")) is not None
        assert self.table.blocks(self.packet(src="10.0.0.2")) is None

    def test_prefix_label_matches_via_residual_path(self):
        self.table.install(FlowLabel.between("10.0.0.0/24", "10.0.1.1"), 60.0)
        assert self.table.blocks(self.packet(src="10.0.0.77")) is not None
        assert self.table.blocks(self.packet(src="10.1.0.77")) is None

    def test_slash32_prefix_label_is_exact_indexed(self):
        label = FlowLabel.between("10.0.0.1/32", "10.0.1.1/32")
        assert label.exact_key is not None
        self.table.install(label, 60.0)
        assert self.table.blocks(self.packet()) is not None

    def test_earliest_installed_filter_wins_across_index_and_residual(self):
        wildcard = self.table.install(FlowLabel.to_destination("10.0.1.1"), 60.0)
        self.table.install(FlowLabel.between("10.0.0.9", "10.0.1.1"), 60.0)
        # The wildcard (installed first) is what a linear scan would hit.
        hit = self.table.blocks(self.packet(src="10.0.0.9"))
        assert hit is wildcard

    def test_port_constrained_label_still_checks_ports(self):
        self.table.install(
            FlowLabel.between("10.0.0.1", "10.0.1.1", protocol="udp", dst_port=53),
            60.0,
        )
        assert self.table.blocks(self.packet(dst_port=53)) is not None
        assert self.table.blocks(self.packet(dst_port=80)) is None

    def test_expiry_heap_honours_extensions(self):
        entry = self.table.install(FlowLabel.between("10.0.0.1", "10.0.1.1"), 5.0)
        self.clock_now = 3.0
        extended = self.table.install(FlowLabel.between("10.0.0.1", "10.0.1.1"), 5.0)
        assert extended is entry
        self.clock_now = 6.0  # past the original expiry, inside the extension
        assert self.table.blocks(self.packet()) is not None
        self.clock_now = 8.0
        assert self.table.blocks(self.packet()) is None
        assert self.table.occupancy == 0

    def test_remove_matching_only_touches_equal_labels(self):
        self.table.install(FlowLabel.between("10.0.0.1", "10.0.1.1"), 60.0)
        self.table.install(FlowLabel.from_source("10.0.0.1"), 60.0)
        assert self.table.remove_matching(FlowLabel.from_source("10.0.0.1")) == 1
        assert self.table.occupancy == 1


class TestPerfHarness:
    def test_profile_helpers_produce_hotspots(self):
        from repro.perf.profiling import format_hotspots, profile_callable
        value, stats = profile_callable(sum, range(1000))
        assert value == 499500
        assert "function calls" in format_hotspots(stats, top=5)
