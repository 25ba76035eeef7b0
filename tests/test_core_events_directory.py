"""Unit tests for the protocol event log and the node directory."""

from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.net.address import IPAddress
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.sim.engine import Simulator


class TestProtocolEventLog:
    def test_record_and_query(self):
        log = ProtocolEventLog()
        log.record(1.0, EventType.REQUEST_SENT, "G_host", 1, role="to_victim_gateway")
        log.record(2.0, EventType.REQUEST_RECEIVED, "G_gw1", 1)
        log.record(3.0, EventType.FILTER_INSTALLED, "B_gw1", 1)
        assert len(log) == 3
        assert log.count(EventType.REQUEST_SENT) == 1
        assert [e.node for e in log.of_type(EventType.REQUEST_RECEIVED)] == ["G_gw1"]
        assert len(log.by_node("G_gw1")) == 1
        assert len(log.for_request(1)) == 3

    def test_first_and_last_with_filters(self):
        log = ProtocolEventLog()
        log.record(1.0, EventType.REQUEST_SENT, "a", 1)
        log.record(2.0, EventType.REQUEST_SENT, "b", 2)
        log.record(3.0, EventType.REQUEST_SENT, "a", 3)
        assert log.first(EventType.REQUEST_SENT).time == 1.0
        assert log.first(EventType.REQUEST_SENT, node="b").time == 2.0
        assert log.first(EventType.REQUEST_SENT, request_id=3).time == 3.0
        assert log.last(EventType.REQUEST_SENT, node="a").time == 3.0
        assert log.first(EventType.DISCONNECTION) is None

    def test_max_round(self):
        log = ProtocolEventLog()
        assert log.max_round() == 0
        log.record(1.0, EventType.ESCALATION, "G_gw1", 1, round=2)
        log.record(2.0, EventType.ESCALATION, "G_gw2", 1, round=3)
        log.record(3.0, EventType.ESCALATION, "X", 9, round=7)
        assert log.max_round() == 7
        assert log.max_round(request_id=1) == 3

    def test_counts_histogram(self):
        log = ProtocolEventLog()
        log.record(1.0, EventType.REQUEST_SENT, "a")
        log.record(2.0, EventType.REQUEST_SENT, "b")
        log.record(3.0, EventType.DISCONNECTION, "c")
        counts = log.counts()
        assert counts[EventType.REQUEST_SENT] == 2
        assert counts[EventType.DISCONNECTION] == 1

    def test_subscription(self):
        log = ProtocolEventLog()
        seen = []
        log.subscribe(seen.append)
        log.record(1.0, EventType.REQUEST_SENT, "a")
        assert len(seen) == 1
        assert seen[0].event_type is EventType.REQUEST_SENT

    def test_clear(self):
        log = ProtocolEventLog()
        log.record(1.0, EventType.REQUEST_SENT, "a")
        log.clear()
        assert len(log) == 0

    def test_iteration_and_all(self):
        log = ProtocolEventLog()
        log.record(1.0, EventType.REQUEST_SENT, "a")
        log.record(2.0, EventType.REQUEST_SENT, "b")
        assert [e.node for e in log] == ["a", "b"]
        assert len(log.all()) == 2


class TestNodeDirectory:
    def _nodes(self):
        sim = Simulator()
        host = Host(sim, "G_host", "10.0.0.1")
        router = BorderRouter(sim, "G_gw1", "10.0.0.254")
        return host, router

    def test_register_and_lookup(self):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register_all([host, router])
        assert directory.get("G_host") is host
        assert "G_gw1" in directory
        assert len(directory) == 2
        assert directory.get("missing") is None

    def test_address_resolution(self):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register_all([host, router])
        assert str(directory.address_of("G_gw1")) == "10.0.0.254"
        assert directory.address_of("missing") is None

    def test_reverse_lookup(self):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register_all([host, router])
        assert directory.node_owning("10.0.0.1") is host
        assert directory.name_of("10.0.0.254") == "G_gw1"
        assert directory.node_owning("9.9.9.9") is None
        assert directory.name_of("9.9.9.9") is None

    def test_reregistration_replaces(self):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register(host)
        directory.register(host)
        assert len(directory) == 1
        assert len(directory.nodes()) == 1

    def test_reverse_lookup_does_not_scan_registered_nodes(self, monkeypatch):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register_all([host, router])
        scans = []
        monkeypatch.setattr(
            NetworkNode, "owns_address",
            lambda self, address: scans.append(self.name) or False)
        assert directory.node_owning("10.0.0.1") is host
        assert directory.node_owning(router.address) is router
        assert scans == []
        # an unknown address still falls back to (and fails) the full scan
        assert directory.node_owning("9.9.9.9") is None
        assert scans == ["G_host", "G_gw1"]

    def test_address_added_after_registration_resolves_and_is_indexed(self):
        host, router = self._nodes()
        directory = NodeDirectory()
        directory.register_all([host, router])
        router.add_address("10.0.9.9")
        assert directory.node_owning("10.0.9.9") is router
        assert directory._by_address[IPAddress.parse("10.0.9.9").value] is router

    def test_first_registered_owner_wins_and_replacement_takes_its_place(self):
        host, router = self._nodes()
        sim = Simulator()
        twin = Host(sim, "twin", "10.0.0.1")
        directory = NodeDirectory()
        directory.register_all([host, twin, router])
        assert directory.node_owning("10.0.0.1") is host
        # Same name, new node: the old one's addresses go with it, and the
        # newcomer stands where the old entry stood in registration order.
        renumbered = Host(sim, "G_host", "10.0.0.7")
        directory.register(renumbered)
        assert directory.node_owning("10.0.0.7") is renumbered
        assert directory.node_owning("10.0.0.1") is twin
        shadow = Host(sim, "G_host", "10.0.0.254")
        directory.register(shadow)
        assert directory.node_owning("10.0.0.254") is shadow
        assert directory.node_owning("10.0.0.7") is None
