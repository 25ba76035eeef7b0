"""Unit tests for token-bucket policing, routing tables and ingress filtering."""

import pytest

from repro.net.address import IPAddress, Prefix
from repro.net.packet import Packet
from repro.router.ingress import IngressFilter
from repro.router.policer import TokenBucket
from repro.router.routing import RoutingTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeLink:
    """Stand-in object; routing only stores and returns it."""

    def __init__(self, name):
        self.name = name


class TestTokenBucket:
    def test_burst_allows_initial_batch(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        results = [bucket.allow() for _ in range(6)]
        assert results == [True] * 5 + [False]

    def test_tokens_refill_over_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        assert bucket.allow()
        assert not bucket.allow()
        clock.now = 0.1  # one token regained
        assert bucket.allow()

    def test_rate_enforced_over_long_window(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=100.0, clock=clock)
        accepted = 0
        for step in range(1000):
            clock.now = step * 0.001  # 1000 attempts over one second
            if bucket.allow():
                accepted += 1
        # Burst (100) + refill over ~1 s (100) bounds acceptance.
        assert accepted <= 201
        assert accepted >= 190

    def test_tokens_do_not_exceed_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.now = 100.0
        assert bucket.tokens == pytest.approx(2.0)

    def test_would_allow_does_not_consume(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.would_allow()
        assert bucket.would_allow()
        assert bucket.allow()
        assert not bucket.allow()

    def test_cost_parameter(self):
        bucket = TokenBucket(rate=1.0, burst=10.0)
        assert bucket.allow(cost=8.0)
        assert not bucket.allow(cost=5.0)
        with pytest.raises(ValueError):
            bucket.allow(cost=0.0)

    def test_rejection_rate(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.allow()
        bucket.allow()
        assert bucket.rejection_rate == pytest.approx(0.5)

    def test_reset(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.allow()
        bucket.allow()
        bucket.reset()
        assert bucket.accepted == 0
        assert bucket.allow()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestRoutingTable:
    def test_longest_prefix_match(self):
        table = RoutingTable()
        coarse, fine = FakeLink("coarse"), FakeLink("fine")
        table.add_route("10.0.0.0/8", coarse)
        table.add_route("10.1.0.0/16", fine)
        assert table.next_link("10.1.2.3") is fine
        assert table.next_link("10.2.2.3") is coarse

    def test_default_route_fallback(self):
        table = RoutingTable()
        default = FakeLink("default")
        table.set_default(default)
        assert table.next_link("99.99.99.99") is default

    def test_no_route_returns_none(self):
        table = RoutingTable()
        assert table.lookup("1.2.3.4") is None
        assert table.next_link("1.2.3.4") is None

    def test_replacing_route_for_same_prefix(self):
        table = RoutingTable()
        old, new = FakeLink("old"), FakeLink("new")
        table.add_route("10.0.0.0/24", old)
        table.add_route("10.0.0.0/24", new)
        assert table.next_link("10.0.0.5") is new
        assert len(table.routes()) == 1

    def test_remove_route(self):
        table = RoutingTable()
        table.add_route("10.0.0.0/24", FakeLink("x"))
        assert table.remove_route("10.0.0.0/24")
        assert not table.remove_route("10.0.0.0/24")
        assert table.lookup("10.0.0.5") is None

    def test_calls_that_change_nothing_keep_the_memo_and_the_scan_list(
            self, monkeypatch):
        # _recompute withdraws every prefix of every unreachable router and
        # re-installs every unchanged row: neither may cold-start a table.
        table = RoutingTable()
        coarse, host = FakeLink("coarse"), FakeLink("host")
        table.add_route("10.0.0.0/8", coarse)
        table.add_route("10.1.2.3/32", host, metric=2)
        assert table.next_link("10.1.2.3") is host
        assert table.next_link("10.9.9.9") is coarse

        assert not table.remove_route("10.7.7.7/32")
        assert not table.remove_route("10.7.0.0/16")
        row = table.route_for("10.1.2.3/32")
        assert not table.install(row.prefix, host, 2)
        assert not table.install_rows([row.prefix.key, 0],
                                      [table.next_hop(host, 2), None])
        assert table.add_route("10.1.2.3/32", host, metric=2) == row
        assert table.add_route("10.0.0.0/8", coarse) == table.route_for("10.0.0.0/8")

        # Both answers still come from the memo (no match is run), and an
        # address seen for the first time walks the scan list already built.
        matched, scans = [], []
        match, shorter_rows = RoutingTable._match, RoutingTable._shorter_rows
        monkeypatch.setattr(
            RoutingTable, "_match",
            lambda self, value: matched.append(value) or match(self, value))
        monkeypatch.setattr(
            RoutingTable, "_shorter_rows",
            lambda self: scans.append(1) or shorter_rows(self))
        assert table.next_link("10.1.2.3") is host
        assert table.next_link("10.9.9.9") is coarse
        assert matched == []
        assert table.next_link("10.8.8.8") is coarse
        assert matched == [IPAddress.parse("10.8.8.8").value] and scans == []

    def test_a_host_row_changing_drops_only_its_own_memo_entry(self):
        table = RoutingTable()
        coarse, old, new = FakeLink("coarse"), FakeLink("old"), FakeLink("new")
        table.add_route("10.0.0.0/8", coarse)
        table.add_route("10.1.2.3/32", old)
        assert table.next_link("10.1.2.3") is old
        assert table.next_link("10.9.9.9") is coarse
        scan = table._scan

        assert table.install(Prefix.parse("10.1.2.3/32"), new, 1)
        assert set(table._cache) == {IPAddress.parse("10.9.9.9").value}
        assert table._scan is scan
        assert table.next_link("10.1.2.3") is new
        assert table.remove_route("10.1.2.3/32")
        assert table.next_link("10.1.2.3") is coarse
        # a shorter row can answer for any address: everything goes
        table.add_route("10.1.0.0/16", new)
        assert not table._cache and table._scan is None
        assert table.next_link("10.1.2.3") is new

    def test_routes_are_longest_first_then_metric_then_installation_order(self):
        table = RoutingTable()
        link = FakeLink("x")
        table.add_route("10.0.0.2/32", link, metric=3)
        table.add_route("10.0.0.0/8", link)
        table.add_route("10.0.0.1/32", link, metric=1)
        table.add_route("10.0.0.3/32", link, metric=3)
        table.add_route("10.0.0.2/32", link, metric=3)  # keeps its place
        assert [str(route.prefix) for route in table.routes()] == [
            "10.0.0.1/32", "10.0.0.2/32", "10.0.0.3/32", "10.0.0.0/8"]

    def test_len_counts_default(self):
        table = RoutingTable()
        table.add_route("10.0.0.0/24", FakeLink("x"))
        table.set_default(FakeLink("d"))
        assert len(table) == 2

    def test_clear(self):
        table = RoutingTable()
        table.add_route("10.0.0.0/24", FakeLink("x"))
        table.set_default(FakeLink("d"))
        table.clear()
        assert len(table) == 0
        assert table.next_link("10.0.0.5") is None


class TestIngressFilter:
    def _packet(self, src):
        return Packet.data(IPAddress.parse(src), IPAddress.parse("10.0.1.1"))

    def test_packets_from_allowed_prefix_pass(self):
        ingress = IngressFilter(enforce=True)
        link = FakeLink("client")
        ingress.allow(link, "10.0.0.0/24")
        assert ingress.check(self._packet("10.0.0.5"), link)
        assert ingress.stats.packets_passed == 1

    def test_spoofed_packets_dropped_when_enforcing(self):
        ingress = IngressFilter(enforce=True)
        link = FakeLink("client")
        ingress.allow(link, "10.0.0.0/24")
        assert not ingress.check(self._packet("99.0.0.5"), link)
        assert ingress.stats.spoofed_dropped == 1

    def test_audit_mode_counts_but_passes(self):
        ingress = IngressFilter(enforce=False)
        link = FakeLink("client")
        ingress.allow(link, "10.0.0.0/24")
        assert ingress.check(self._packet("99.0.0.5"), link)
        assert ingress.stats.spoofed_detected == 1
        assert ingress.stats.spoofed_dropped == 0

    def test_links_without_policy_are_not_checked(self):
        ingress = IngressFilter(enforce=True)
        uplink = FakeLink("uplink")
        assert ingress.check(self._packet("99.0.0.5"), uplink)
        assert ingress.stats.packets_checked == 0

    def test_multiple_prefixes_per_link(self):
        ingress = IngressFilter(enforce=True)
        link = FakeLink("client")
        ingress.allow(link, "10.0.0.0/24")
        ingress.allow(link, "10.0.5.0/24")
        assert ingress.check(self._packet("10.0.5.9"), link)
        assert len(ingress.allowed_prefixes(link)) == 2

    def test_validates_source(self):
        ingress = IngressFilter()
        link = FakeLink("client")
        ingress.allow(link, "10.0.0.0/24")
        assert ingress.validates_source("10.0.0.7", link)
        assert not ingress.validates_source("10.0.1.7", link)
        assert not ingress.validates_source("10.0.0.7", FakeLink("other"))

    def test_has_policy_for(self):
        ingress = IngressFilter()
        link = FakeLink("client")
        assert not ingress.has_policy_for(link)
        ingress.allow(link, "10.0.0.0/24")
        assert ingress.has_policy_for(link)
