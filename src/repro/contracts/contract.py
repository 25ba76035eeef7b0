"""Filtering contracts and per-peer request policing.

Every AITF network holds one contract per end-host and per neighbouring AD
(Section II-A).  At the protocol level a contract does two things:

* it polices *incoming* filtering requests from the counterparty to rate R1
  (requests over the rate are "indiscriminately dropped", Section II-B), and
* it paces *outgoing* filtering requests toward the counterparty to rate R2,
  because sending faster than the counterparty agreed to accept just wastes
  requests.

:class:`ContractBook` is the per-node collection the AITF agent consults;
it resolves the counterparty of a request from the link it arrived on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.router.policer import TokenBucket


@dataclass
class ContractStats:
    """Counters for one filtering contract."""

    requests_received: int = 0
    requests_accepted: int = 0
    requests_policed: int = 0
    requests_sent: int = 0
    requests_send_suppressed: int = 0

    @property
    def inbound_rejection_rate(self) -> float:
        """Fraction of received requests dropped by policing."""
        if self.requests_received == 0:
            return 0.0
        return self.requests_policed / self.requests_received


class FilteringContract:
    """The contract between this node and one counterparty.

    Parameters
    ----------
    counterparty:
        Name of the end-host or peer network the contract is with.
    accept_rate:
        R1 — requests per second this node accepts *from* the counterparty.
    send_rate:
        R2 — requests per second this node may send *to* the counterparty.
    clock:
        Simulation clock shared with the node.
    """

    def __init__(
        self,
        counterparty: str,
        accept_rate: float,
        send_rate: float,
        clock: Optional[Callable[[], float]] = None,
        *,
        accept_burst: Optional[float] = None,
        send_burst: Optional[float] = None,
    ) -> None:
        if accept_rate <= 0 or send_rate <= 0:
            raise ValueError("contract rates must be positive")
        self.counterparty = counterparty
        self.accept_rate = float(accept_rate)
        self.send_rate = float(send_rate)
        self.stats = ContractStats()
        self._accept_bucket = TokenBucket(accept_rate, accept_burst, clock)
        self._send_bucket = TokenBucket(send_rate, send_burst, clock)

    # ------------------------------------------------------------------
    # inbound policing
    # ------------------------------------------------------------------
    def accept_request(self) -> bool:
        """Account one inbound request; False means it must be dropped (policed)."""
        self.stats.requests_received += 1
        if self._accept_bucket.allow():
            self.stats.requests_accepted += 1
            return True
        self.stats.requests_policed += 1
        return False

    # ------------------------------------------------------------------
    # outbound pacing
    # ------------------------------------------------------------------
    def may_send_request(self) -> bool:
        """Account one outbound request; False means the sender should hold it."""
        if self._send_bucket.allow():
            self.stats.requests_sent += 1
            return True
        self.stats.requests_send_suppressed += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FilteringContract({self.counterparty}, R1={self.accept_rate}/s, "
            f"R2={self.send_rate}/s)"
        )


class ContractBook:
    """All contracts held by one AITF node, keyed by counterparty name."""

    #: Default rates used when a scenario does not configure a contract
    #: explicitly; chosen to match the paper's worked examples
    #: (R1 = 100 requests/s toward providers, R2 = 1 request/s toward clients).
    DEFAULT_ACCEPT_RATE = 100.0
    DEFAULT_SEND_RATE = 100.0

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 *, default_accept_rate: Optional[float] = None,
                 default_send_rate: Optional[float] = None,
                 auto_create: bool = True) -> None:
        self._clock = clock or (lambda: 0.0)
        self._contracts: Dict[str, FilteringContract] = {}
        self.default_accept_rate = default_accept_rate or self.DEFAULT_ACCEPT_RATE
        self.default_send_rate = default_send_rate or self.DEFAULT_SEND_RATE
        #: When True, unknown counterparties get a default contract on first
        #: use; when False, requests from unknown counterparties are refused
        #: outright (strict contract enforcement).
        self.auto_create = auto_create

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add(self, counterparty: str, accept_rate: float, send_rate: float,
            **kwargs) -> FilteringContract:
        """Create (or replace) the contract with ``counterparty``."""
        contract = FilteringContract(counterparty, accept_rate, send_rate,
                                     self._clock, **kwargs)
        self._contracts[counterparty] = contract
        return contract

    def get(self, counterparty: str) -> Optional[FilteringContract]:
        """The contract with ``counterparty``; auto-created if allowed."""
        contract = self._contracts.get(counterparty)
        if contract is None and self.auto_create:
            contract = self.add(counterparty, self.default_accept_rate, self.default_send_rate)
        return contract

    def has(self, counterparty: str) -> bool:
        """True when an explicit contract exists."""
        return counterparty in self._contracts

    def __len__(self) -> int:
        return len(self._contracts)

    def all(self) -> Dict[str, FilteringContract]:
        """Snapshot of every contract."""
        return dict(self._contracts)

    # ------------------------------------------------------------------
    # convenience wrappers used by the protocol engine
    # ------------------------------------------------------------------
    def police_inbound(self, counterparty: str) -> bool:
        """Police one inbound request from ``counterparty``."""
        contract = self.get(counterparty)
        if contract is None:
            return False
        return contract.accept_request()

    def pace_outbound(self, counterparty: str) -> bool:
        """Pace one outbound request toward ``counterparty``."""
        contract = self.get(counterparty)
        if contract is None:
            return False
        return contract.may_send_request()
