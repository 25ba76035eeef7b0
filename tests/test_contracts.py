"""Unit tests for filtering contracts."""

import pytest

from repro.contracts.contract import ContractBook, FilteringContract


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestFilteringContract:
    def test_inbound_policing_respects_r1(self):
        clock = FakeClock()
        contract = FilteringContract("client", accept_rate=5.0, send_rate=1.0,
                                     clock=clock, accept_burst=5.0)
        results = [contract.accept_request() for _ in range(8)]
        assert results.count(True) == 5
        assert contract.stats.requests_policed == 3
        assert contract.stats.inbound_rejection_rate == pytest.approx(3 / 8)

    def test_inbound_tokens_refill(self):
        clock = FakeClock()
        contract = FilteringContract("client", accept_rate=10.0, send_rate=1.0,
                                     clock=clock, accept_burst=1.0)
        assert contract.accept_request()
        assert not contract.accept_request()
        clock.now = 0.2
        assert contract.accept_request()

    def test_outbound_pacing_respects_r2(self):
        clock = FakeClock()
        contract = FilteringContract("peer", accept_rate=100.0, send_rate=2.0,
                                     clock=clock, send_burst=2.0)
        results = [contract.may_send_request() for _ in range(4)]
        assert results.count(True) == 2
        assert contract.stats.requests_send_suppressed == 2

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FilteringContract("x", accept_rate=0.0, send_rate=1.0)
        with pytest.raises(ValueError):
            FilteringContract("x", accept_rate=1.0, send_rate=-1.0)


class TestContractBook:
    def test_explicit_contract_used(self):
        book = ContractBook()
        book.add("client", accept_rate=1.0, send_rate=1.0, accept_burst=1.0)
        assert book.police_inbound("client")
        assert not book.police_inbound("client")

    def test_auto_create_uses_defaults(self):
        book = ContractBook(default_accept_rate=50.0, default_send_rate=2.0)
        contract = book.get("unknown-peer")
        assert contract is not None
        assert contract.accept_rate == 50.0
        assert contract.send_rate == 2.0
        assert book.has("unknown-peer")

    def test_strict_mode_refuses_unknown_counterparties(self):
        book = ContractBook(auto_create=False)
        assert book.get("stranger") is None
        assert not book.police_inbound("stranger")
        assert not book.pace_outbound("stranger")

    def test_len_and_all(self):
        book = ContractBook()
        book.add("a", 1.0, 1.0)
        book.add("b", 1.0, 1.0)
        assert len(book) == 2
        assert set(book.all()) == {"a", "b"}

    def test_readding_replaces(self):
        book = ContractBook()
        book.add("a", 1.0, 1.0)
        book.add("a", 7.0, 3.0)
        assert book.get("a").accept_rate == 7.0
        assert len(book) == 1

