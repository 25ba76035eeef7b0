"""Unit tests for drop-tail queues and point-to-point links."""

import dataclasses

import pytest

from repro.net.address import IPAddress
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, QueueStats
from repro.sim.engine import Simulator


SRC = IPAddress.parse("10.0.0.1")
DST = IPAddress.parse("10.0.1.1")


def make_packet(size=1000):
    return Packet.data(SRC, DST, size=size)


class RecordingSink:
    """A minimal link endpoint that records deliveries."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive_packet(self, packet, link):
        link.arrived(self, packet)
        self.received.append(packet)


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        first, second = make_packet(), make_packet()
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second
        assert queue.dequeue() is None

    def test_byte_capacity_enforced(self):
        queue = DropTailQueue(capacity_bytes=2500)
        assert queue.enqueue(make_packet(1000))
        assert queue.enqueue(make_packet(1000))
        assert not queue.enqueue(make_packet(1000))
        assert queue.stats.dropped == 1
        assert queue.stats.drop_rate == pytest.approx(1 / 3)

    def test_packet_capacity_enforced(self):
        queue = DropTailQueue(capacity_bytes=1_000_000, capacity_packets=2)
        queue.enqueue(make_packet())
        queue.enqueue(make_packet())
        assert not queue.enqueue(make_packet())

    def test_bytes_queued_tracks_contents(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        queue.enqueue(make_packet(400))
        queue.enqueue(make_packet(600))
        assert queue.bytes_queued == 1000
        queue.dequeue()
        assert queue.bytes_queued == 600

    def test_peak_depth_recorded(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        for _ in range(5):
            queue.enqueue(make_packet(100))
        assert queue.stats.peak_depth_packets == 5
        assert queue.stats.peak_depth_bytes == 500

    def test_clear(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        queue.enqueue(make_packet())
        queue.enqueue(make_packet())
        assert queue.clear() == 2
        assert queue.is_empty
        assert queue.bytes_queued == 0

    def test_clear_accounts_flushed_packets_and_bytes(self):
        # Regression: clear() used to discard silently, so goodput
        # experiments under-reported losses after a queue flush.
        queue = DropTailQueue(capacity_bytes=10_000)
        queue.enqueue(make_packet(300))
        queue.enqueue(make_packet(200))
        queue.clear()
        assert queue.stats.flushed == 2
        assert queue.stats.bytes_flushed == 500
        # Flushes are not tail drops: offered-load accounting is unchanged.
        assert queue.stats.dropped == 0
        assert queue.stats.packets_lost == 2
        assert queue.stats.bytes_lost == 500
        # A second flush accumulates.
        queue.enqueue(make_packet(100))
        queue.clear()
        assert queue.stats.flushed == 3
        assert queue.stats.bytes_flushed == 600

    def test_clear_of_empty_queue_flushes_nothing(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        assert queue.clear() == 0
        assert queue.stats.flushed == 0
        assert queue.stats.bytes_flushed == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_peek_does_not_remove(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        packet = make_packet()
        queue.enqueue(packet)
        assert queue.peek() is packet
        assert len(queue) == 1


class TestLink:
    def test_delivery_after_serialization_plus_propagation(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=8_000_000, delay=0.01)
        packet = make_packet(1000)  # 1000 B at 8 Mbps -> 1 ms serialization
        link.send(packet, a)
        sim.run()
        assert b.received == [packet]
        assert sim.now == pytest.approx(0.011)

    def test_directions_are_independent(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=8_000_000, delay=0.001)
        link.send(make_packet(), a)
        link.send(make_packet(), b)
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=8_000_000, delay=0.0)
        for _ in range(3):
            link.send(make_packet(1000), a)
        sim.run()
        assert len(b.received) == 3
        # 3 packets x 1 ms serialization each.
        assert sim.now == pytest.approx(0.003)

    def test_queue_overflow_drops_packets(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=1_000_000, delay=0.0,
                    queue_capacity_bytes=3000)
        for _ in range(10):
            link.send(make_packet(1000), a)
        sim.run()
        stats = link.stats_toward(b)
        assert stats.packets_dropped > 0
        assert stats.packets_delivered + stats.packets_dropped == 10

    def test_live_stats_count_an_idle_crossing_as_enqueue_then_dequeue(self):
        """The idle bypass records a packet once, on the queue; read back,
        the counters equal those of a packet enqueued and dequeued at once."""
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=1_000_000, delay=0.0,
                    queue_capacity_bytes=3000)
        for _ in range(5):  # 1 crosses idle, 3 wait, 1 is tail-dropped
            link.send(make_packet(1000), a)
        sim.run()
        sim.fire_at(1.0, link.send, make_packet(1500), a)  # idle again
        sim.run()
        stats, queue = link.stats_toward(b), link.queue_toward(b)
        assert queue._passed == 2 and queue._bytes_passed == 2500
        assert dataclasses.astuple(queue.stats) == dataclasses.astuple(
            QueueStats(enqueued=5, dequeued=5, dropped=1, bytes_enqueued=5500,
                       bytes_dropped=1000, peak_depth_packets=3,
                       peak_depth_bytes=3000))
        assert (stats.packets_sent, stats.packets_delivered,
                stats.packets_dropped, stats.bytes_delivered) == (6, 5, 1, 5500)
        assert stats.busy_time == pytest.approx(5500 * 8 / 1e6)
        assert stats is link.pipe_toward(b).stats
        assert len(b.received) == 5

    def test_throughput_respects_bandwidth(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        # 1 Mbps link, offered 10 x 1000 B = 80 kbit -> needs 0.08 s minimum.
        link = Link(sim, a, b, bandwidth_bps=1_000_000, delay=0.0,
                    queue_capacity_bytes=1_000_000)
        for _ in range(10):
            link.send(make_packet(1000), a)
        sim.run()
        assert len(b.received) == 10
        assert sim.now == pytest.approx(0.08)

    def test_other_end(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b)
        assert link.other_end(a) is b
        assert link.other_end(b) is a
        with pytest.raises(ValueError):
            link.other_end(RecordingSink("stranger"))

    def test_send_from_unattached_node_rejected(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b)
        with pytest.raises(ValueError):
            link.send(make_packet(), RecordingSink("stranger"))

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        with pytest.raises(ValueError):
            Link(sim, a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, a, b, delay=-1.0)

    def test_utilization_statistic(self):
        sim = Simulator()
        a, b = RecordingSink("a"), RecordingSink("b")
        link = Link(sim, a, b, bandwidth_bps=1_000_000, delay=0.0,
                    queue_capacity_bytes=1_000_000)
        for _ in range(5):
            link.send(make_packet(1000), a)
        sim.run(until=1.0)
        stats = link.stats_toward(b)
        assert 0.0 < stats.utilization(1.0, link.bandwidth_bps) <= 1.0


class TestFlushAccountingUnderTraffic:
    """clear() mid-simulation: the PR-1 flush-accounting fix must hold when
    the queue is flushed between enqueues and drains, not just in isolation."""

    def test_flush_between_enqueues_keeps_conservation(self):
        queue = DropTailQueue(capacity_bytes=3000)
        accepted = 0
        for _ in range(5):  # 3 fit, 2 tail-dropped
            if queue.enqueue(make_packet(1000)):
                accepted += 1
        assert accepted == 3
        queue.dequeue()
        flushed = queue.clear()
        assert flushed == 2
        stats = queue.stats
        # Every offered packet is exactly one of: dequeued, dropped, flushed.
        assert stats.enqueued + stats.dropped == 5
        assert stats.dequeued + stats.dropped + stats.flushed == 5
        assert stats.bytes_lost == stats.bytes_dropped + stats.bytes_flushed
        # The tail-drop rate never counts flushed packets in its numerator.
        assert stats.drop_rate == pytest.approx(2 / 5)

    def test_queue_reusable_after_flush(self):
        queue = DropTailQueue(capacity_bytes=2500)
        queue.enqueue(make_packet(1000))
        queue.enqueue(make_packet(1000))
        queue.clear()
        assert queue.enqueue(make_packet(2500)) is True
        assert queue.bytes_queued == 2500
        assert queue.stats.flushed == 2
        assert queue.stats.enqueued == 3
