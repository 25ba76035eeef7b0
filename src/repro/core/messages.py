"""AITF protocol messages.

The basic protocol has a single message type, the *filtering request*
(Section II-C); the verification extension adds the *verification query* and
*verification reply* (Section II-E).  We additionally model the
*disconnect notice* a gateway sends when it gives up on a non-cooperating
counterparty — the paper describes disconnection as an out-of-band
administrative action, but making it a message lets experiments observe when
and why it happened.

Messages ride inside :class:`repro.net.Packet` payloads (``kind`` set to the
matching :class:`repro.net.PacketKind`); they are plain dataclasses, not wire
encodings, because the paper's claims do not depend on header layout.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel


class RequestRole(str, enum.Enum):
    """The 'type field' of a filtering request: who the request is addressed to."""

    TO_VICTIM_GATEWAY = "to_victim_gateway"
    TO_ATTACKER_GATEWAY = "to_attacker_gateway"
    TO_ATTACKER = "to_attacker"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_request_ids = itertools.count(1)


@dataclass
class FilteringRequest:
    """A request to block a flow for ``timeout`` (= T) seconds.

    Attributes
    ----------
    label:
        The wildcarded flow label to block.
    timeout:
        T, in seconds.
    role:
        Which role the addressee is expected to play (the paper's type field).
    attack_path:
        Border routers on the attack path, attacker's gateway first.  Filled
        in by the victim's gateway from the route-record shim; the victim
        itself may leave it empty and let its gateway fill it.
    round_number:
        Escalation round (1 = the original request).  Round k designates the
        k-th closest border router to the attacker as the attacker's gateway.
    requestor:
        Name of the AITF node that sent this request.
    victim:
        Address of the original victim (used as the target of verification
        queries regardless of escalation round).
    request_id:
        Stable id across propagation and escalation, for tracing in metrics.
    """

    label: FlowLabel
    timeout: float
    role: RequestRole = RequestRole.TO_VICTIM_GATEWAY
    attack_path: Tuple[str, ...] = ()
    round_number: int = 1
    requestor: str = ""
    victim: Optional[IPAddress] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # ------------------------------------------------------------------
    # role geometry helpers
    # ------------------------------------------------------------------
    @property
    def designated_attacker_gateway(self) -> Optional[str]:
        """The border router expected to take responsibility in this round."""
        index = self.round_number - 1
        if 0 <= index < len(self.attack_path):
            return self.attack_path[index]
        return None

    @property
    def designated_attacker(self) -> Optional[str]:
        """The node expected to stop the flow in this round.

        Round 1: the originating host (identified by the flow label source,
        so returns None here — the gateway resolves the address itself).
        Round k > 1: the border router one step closer to the attacker than
        the designated gateway.
        """
        index = self.round_number - 2
        if 0 <= index < len(self.attack_path):
            return self.attack_path[index]
        return None

    def propagate(self, *, role: RequestRole, requestor: str,
                  attack_path: Optional[Tuple[str, ...]] = None,
                  round_number: Optional[int] = None) -> "FilteringRequest":
        """A copy of this request re-addressed for the next hop of the protocol."""
        return replace(
            self,
            role=role,
            requestor=requestor,
            attack_path=self.attack_path if attack_path is None else attack_path,
            round_number=self.round_number if round_number is None else round_number,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FilteringRequest(#{self.request_id} round={self.round_number} "
            f"{self.role.value} {self.label})"
        )


@dataclass
class VerificationQuery:
    """'Do you really not want this traffic flow?' — sent to the victim."""

    label: FlowLabel
    nonce: int
    querier: IPAddress
    request_id: int

    def matching_reply(self, confirmed: bool, responder: IPAddress) -> "VerificationReply":
        """Build the reply echoing this query's label and nonce."""
        return VerificationReply(
            label=self.label,
            nonce=self.nonce,
            confirmed=confirmed,
            responder=responder,
            request_id=self.request_id,
        )


@dataclass
class VerificationReply:
    """The victim's answer, echoing the query's flow label and nonce."""

    label: FlowLabel
    nonce: int
    confirmed: bool
    responder: IPAddress
    request_id: int


@dataclass
class DisconnectNotice:
    """Notification that a gateway has disconnected a non-cooperating counterparty."""

    offender: str
    reason: str
    request_id: Optional[int] = None
