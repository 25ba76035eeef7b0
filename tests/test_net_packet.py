"""Unit tests for the packet type and route-record shim."""

from repro.net.address import IPAddress
from repro.net.packet import CONTROL_MESSAGE_SIZE, Packet, PacketKind, Protocol


SRC = IPAddress.parse("10.0.0.1")
DST = IPAddress.parse("10.0.1.1")


class TestConstruction:
    def test_data_packet_defaults(self):
        packet = Packet.data(SRC, DST)
        assert packet.kind is PacketKind.DATA
        assert not packet.is_control
        assert packet.size == 1000
        assert packet.protocol == Protocol.UDP.value

    def test_control_packet(self):
        packet = Packet.control(SRC, DST, PacketKind.FILTERING_REQUEST, payload={"x": 1})
        assert packet.is_control
        assert packet.size == CONTROL_MESSAGE_SIZE
        assert packet.protocol == Protocol.AITF.value
        assert packet.payload == {"x": 1}


class TestRouteRecord:
    def test_stamps_accumulate_in_order(self):
        packet = Packet.data(SRC, DST)
        packet.stamp_route("B_gw1")
        packet.stamp_route("B_gw2")
        packet.stamp_route("G_gw1")
        assert packet.recorded_path == ("B_gw1", "B_gw2", "G_gw1")

    def test_consecutive_duplicate_stamps_collapse(self):
        packet = Packet.data(SRC, DST)
        packet.stamp_route("B_gw1")
        packet.stamp_route("B_gw1")
        assert packet.recorded_path == ("B_gw1",)

    def test_non_consecutive_duplicates_are_kept(self):
        packet = Packet.data(SRC, DST)
        packet.stamp_route("A")
        packet.stamp_route("B")
        packet.stamp_route("A")
        assert packet.recorded_path == ("A", "B", "A")

    def test_recorded_path_is_a_snapshot(self):
        packet = Packet.data(SRC, DST)
        packet.stamp_route("B_gw1")
        path = packet.recorded_path
        packet.stamp_route("G_gw1")
        assert path == ("B_gw1",)
        assert packet.recorded_path == ("B_gw1", "G_gw1")


class TestSpoofing:
    def test_unspoofed_packet(self):
        packet = Packet.data(SRC, DST)
        assert not packet.is_spoofed
        assert packet.true_source == SRC

    def test_spoofed_packet_reports_true_source(self):
        zombie = IPAddress.parse("10.9.9.9")
        packet = Packet.data(SRC, DST, spoofed_src=zombie)
        assert packet.is_spoofed
        assert packet.true_source == zombie
        assert packet.src == SRC

    def test_spoofed_src_equal_to_src_not_spoofed(self):
        packet = Packet.data(SRC, DST, spoofed_src=SRC)
        assert not packet.is_spoofed


class TestClone:
    def test_copy_gets_empty_route(self):
        original = Packet.data(SRC, DST, dst_port=80)
        original.stamp_route("X")
        copy = original.clone()
        assert copy.recorded_path == ()
        assert copy.dst_port == 80
        assert copy.src == original.src

    def test_clone_assigns_every_slot(self):
        """``clone`` bypasses ``__init__``: a slot it forgot would raise
        AttributeError on first read, far from the cause."""
        original = Packet.data(SRC, DST, dst_port=80, flow_tag="t")
        original.stamp_route("X")
        copy = original.clone()
        for name in Packet.__slots__:
            if name == "route_record":
                assert copy.route_record == []
            else:
                assert getattr(copy, name) == getattr(original, name), name

    def test_copy_preserves_spoofing_and_tag(self):
        packet = Packet.data(SRC, DST, spoofed_src=IPAddress.parse("10.9.9.9"),
                             flow_tag="attack")
        copy = packet.clone()
        assert copy.is_spoofed
        assert copy.flow_tag == "attack"
