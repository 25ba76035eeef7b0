"""Unit tests for hosts and border routers (the forwarding pipeline)."""

import pytest

from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.train import PacketTrain
from repro.router.nodes import BorderRouter, Host
from repro.sim.engine import Simulator


def build_chain(fluid=False):
    """host_a -- router_r -- host_b, with routes installed by hand."""
    sim = Simulator()
    host_a = Host(sim, "host_a", "10.0.0.1", network="net_a")
    host_b = Host(sim, "host_b", "10.0.1.1", network="net_b")
    router = BorderRouter(sim, "router_r", "10.0.2.1", network="isp")
    link_a = Link(sim, host_a, router, bandwidth_bps=10e6, delay=0.001)
    link_b = Link(sim, router, host_b, bandwidth_bps=10e6, delay=0.001)
    for node, link in ((host_a, link_a), (host_b, link_b)):
        node.attach_link(link)
        node.set_gateway(link)
    router.attach_link(link_a)
    router.attach_link(link_b)
    router.routing.add_route("10.0.0.1/32", link_a)
    router.routing.add_route("10.0.1.1/32", link_b)
    if fluid:
        link_a.enable_train_mode()
        link_b.enable_train_mode()
    return sim, host_a, router, host_b, link_a, link_b


def data_packet(src, dst, **kwargs):
    return Packet.data(IPAddress.parse(src), IPAddress.parse(dst), **kwargs)


def each_count(test):
    """Run a pipeline case for a lone packet and for a train of 7: the one
    data path must account each drop cause count-multiplied.  (A loop, not
    ``parametrize``, so the test IDs stay what they were.)"""
    def run(self):
        for count in (1, 7):
            test(self, count)
    run.__name__ = test.__name__
    return run


def send(host, packet, count):
    """``count`` copies of ``packet`` from ``host``: lone, or one train."""
    if count == 1:
        return host.send(packet)
    return host.send(packet, count, PacketTrain(packet, count, 0.0005))


def counting(received):
    """A receive callback recording (packet, how many copies arrived)."""
    return lambda packet, train=None: received.append(
        (packet, 1 if train is None else train.count))


class TestForwarding:
    @each_count
    def test_host_to_host_via_router(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        received = []
        host_b.on_receive(counting(received))
        assert send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert [n for _, n in received] == [count]
        assert host_a.stats.packets_originated == count
        assert router.stats.packets_received == count
        assert router.stats.bytes_received == count * 1000
        assert router.stats.packets_forwarded == count
        assert host_b.stats.packets_delivered == count
        assert host_b.stats.bytes_delivered == count * 1000

    def test_packet_only_callback_fails_loudly_on_a_train(self):
        sim, host_a, router, host_b, _, _ = build_chain(fluid=True)
        host_b.on_receive([].append)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), 7)
        with pytest.raises(TypeError):
            sim.run()

    @each_count
    def test_route_record_stamped_by_border_router(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        received = []
        host_b.on_receive(counting(received))
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert received[0][0].recorded_path == ("router_r",)

    def test_route_record_stamp_can_be_disabled(self):
        sim, host_a, router, host_b, _, _ = build_chain()
        router.stamp_route_record = False
        received = []
        host_b.on_receive(received.append)
        host_a.send(data_packet("10.0.0.1", "10.0.1.1"))
        sim.run()
        assert received[0].recorded_path == ()

    @each_count
    def test_no_route_drops_packet(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        send(host_a, data_packet("10.0.0.1", "99.99.99.99"), count)
        sim.run()
        assert router.stats.packets_dropped_no_route == count
        assert router.stats.packets_forwarded == 0

    @each_count
    def test_host_without_route_counts_every_copy(self, count):
        sim, host_a, router, host_b, link_a, _ = build_chain(count > 1)
        host_a.disconnect_link(link_a)
        assert not send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        assert host_a.stats.packets_originated == count
        assert host_a.stats.packets_dropped_no_route == count

    @each_count
    def test_ttl_exhaustion_drops_packet(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        packet = data_packet("10.0.0.1", "10.0.1.1")
        packet.ttl = 1
        send(host_a, packet, count)
        sim.run()
        assert router.stats.packets_dropped_ttl == count
        assert host_b.stats.packets_received == 0

    @each_count
    def test_forward_observer_sees_forwarded_data(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        seen = []
        router.add_forward_observer(
            lambda packet, link, train=None: seen.append(
                1 if train is None else train.count))
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert seen == [count]

    @each_count
    def test_conditioner_can_drop(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        router.conditioners.append(lambda packet, link, train=None: 0)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert host_b.stats.packets_received == 0
        assert router.stats.packets_dropped_filter == count

    def test_boolean_conditioner_still_drops_a_lone_packet(self):
        sim, host_a, router, host_b, _, _ = build_chain()
        router.conditioners.append(lambda packet, link: False)
        host_a.send(data_packet("10.0.0.1", "10.0.1.1"))
        sim.run()
        assert host_b.stats.packets_received == 0
        assert router.stats.packets_dropped_filter == 1

    def test_conditioner_scales_a_train_and_keeps_its_span(self):
        sim, host_a, router, host_b, _, _ = build_chain(fluid=True)
        router.conditioners.append(lambda packet, link, train: 3)
        received = []
        host_b.on_receive(lambda packet, train: received.append(
            (train.count, train.count * train.interval)))
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), 7)
        sim.run()
        assert received == [(3, pytest.approx(7 * 0.0005))]
        assert router.stats.packets_dropped_filter == 4
        assert router.stats.packets_forwarded == 3


class TestFiltering:
    @each_count
    def test_filter_table_blocks_matching_transit_traffic(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        entry = router.filter_table.install(
            FlowLabel.between("10.0.0.1", "10.0.1.1"), 60.0)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert host_b.stats.packets_received == 0
        assert router.stats.packets_dropped_filter == count
        assert router.filter_table.packets_checked == count
        assert router.filter_table.packets_blocked == count
        assert entry.packets_blocked == count
        assert entry.bytes_blocked == count * 1000

    def test_filter_expiring_mid_train_blocks_only_the_prefix(self):
        sim, host_a, router, host_b, _, _ = build_chain(fluid=True)
        # The train reaches the router at ~1.8 ms; packets are 0.5 ms apart,
        # so a filter lapsing at 3 ms covers exactly the first three.
        router.filter_table.install(
            FlowLabel.between("10.0.0.1", "10.0.1.1"), 0.003)
        received = []
        host_b.on_receive(counting(received))
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), 7)
        sim.run()
        assert router.stats.packets_dropped_filter == 3
        assert router.stats.packets_forwarded == 4
        assert router.filter_table.packets_checked == 7
        assert sum(n for _, n in received) == 4

    @each_count
    def test_control_traffic_bypasses_filter_table(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        router.filter_table.install(FlowLabel.to_destination("10.0.1.1"), 60.0)
        control = Packet.control(IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.1.1"),
                                 PacketKind.FILTERING_REQUEST, payload=None)
        send(host_a, control, count)
        sim.run()
        assert host_b.stats.packets_delivered == count
        assert router.filter_table.packets_checked == 0

    @each_count
    def test_ingress_enforcement_drops_spoofed(self, count):
        sim, host_a, router, host_b, link_a, _ = build_chain(count > 1)
        router.ingress.enforce = True
        router.ingress.allow(link_a, "10.0.0.0/24")
        send(host_a, data_packet("7.7.7.7", "10.0.1.1"), count)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert host_b.stats.packets_delivered == count
        assert router.stats.packets_dropped_ingress == count
        stats = router.ingress.stats
        assert (stats.packets_checked, stats.packets_passed,
                stats.spoofed_detected, stats.spoofed_dropped) == (
                    2 * count, count, count, count)


class TestHostBehaviour:
    def test_local_delivery_to_own_address(self):
        sim, host_a, router, host_b, _, _ = build_chain()
        received = []
        host_b.on_receive(received.append)
        host_a.send(data_packet("10.0.0.1", "10.0.1.1"))
        sim.run()
        assert host_b.stats.packets_delivered == 1
        assert received[0].dst == IPAddress.parse("10.0.1.1")

    @each_count
    def test_outbound_guard_suppresses_data_only(self, count):
        sim, host_a, router, host_b, _, _ = build_chain(count > 1)
        guarded = []
        host_a.outbound_guard = lambda packet, n: guarded.append(n)
        assert not send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        assert guarded == [count]
        assert host_a.stats_outbound_suppressed == count
        assert host_a.stats.packets_originated == 0
        control = Packet.control(host_a.address, IPAddress.parse("10.0.1.1"),
                                 PacketKind.FILTERING_REQUEST, payload=None)
        assert host_a.send(control)

    def test_control_handler_invoked_for_control_packets(self):
        sim, host_a, router, host_b, _, _ = build_chain()
        handled = []
        host_b.control_handler = lambda packet, link: handled.append(packet)
        control = Packet.control(host_a.address, IPAddress.parse("10.0.1.1"),
                                 PacketKind.VERIFICATION_QUERY, payload="q")
        host_a.send(control)
        sim.run()
        assert len(handled) == 1

    def test_address_bookkeeping(self):
        sim = Simulator()
        host = Host(sim, "h", "10.0.0.1")
        assert host.owns_address("10.0.0.1")
        assert not host.owns_address("10.0.0.2")
        assert host.address == IPAddress.parse("10.0.0.1")

    def test_node_without_address_raises(self):
        sim = Simulator()
        router = BorderRouter(sim, "r", "10.0.0.1")
        router.addresses.clear()
        with pytest.raises(RuntimeError):
            _ = router.address


class TestDisconnection:
    @each_count
    def test_disconnected_link_drops_inbound(self, count):
        sim, host_a, router, host_b, link_a, _ = build_chain(count > 1)
        router.disconnect_link(link_a)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert host_b.stats.packets_delivered == 0
        assert router.stats.packets_received == count
        assert router.stats.packets_dropped_disconnected == count

    @each_count
    def test_disconnected_link_blocks_outbound(self, count):
        sim, host_a, router, host_b, link_a, link_b = build_chain(count > 1)
        router.disconnect_link(link_b)
        send(host_a, data_packet("10.0.0.1", "10.0.1.1"), count)
        sim.run()
        assert host_b.stats.packets_delivered == 0
        assert router.stats.packets_dropped_disconnected == count
        assert router.stats.packets_forwarded == 0

    def test_reconnect_restores_traffic(self):
        sim, host_a, router, host_b, link_a, _ = build_chain()
        router.disconnect_link(link_a)
        router.reconnect_link(link_a)
        host_a.send(data_packet("10.0.0.1", "10.0.1.1"))
        sim.run()
        assert host_b.stats.packets_delivered == 1

    def test_serves_address_uses_local_prefixes(self):
        sim = Simulator()
        router = BorderRouter(sim, "r", "10.0.2.1")
        router.add_local_prefix("10.0.0.0/24")
        assert router.serves_address("10.0.0.55")
        assert not router.serves_address("10.0.1.55")

    def test_link_to_neighbor(self):
        sim, host_a, router, host_b, link_a, link_b = build_chain()
        assert router.link_to(host_a) is link_a
        assert router.link_to(host_b) is link_b
        assert host_a.link_to(host_b) is None
