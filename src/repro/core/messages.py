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

Only end-hosts and border routers speak AITF (Section II-C), and both take
these messages in one way: :class:`AITFAgent`, the base of
:class:`~repro.core.host_agent.HostAgent` and
:class:`~repro.core.gateway_agent.GatewayAgent`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.filter_table import FilterEntry, FilterTable, FilterTableFullError
from repro.router.nodes import NetworkNode


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


class AITFAgent:
    """What the AITF agents of end-hosts and border routers share.

    Every control packet addressed to the node arrives at
    :meth:`_handle_control`, which hands each message type to one method:
    :meth:`_on_request` (each role's own), :meth:`_answer_query`,
    :meth:`_on_reply` and :meth:`_on_notice` (ignored unless a role
    overrides them).  The event log is the record of what an agent did;
    the agent keeps the state the protocol reads back.
    """

    #: The ``table`` a failed filter install is logged with.
    filters_kind = "wire-speed"

    def __init__(self, node: NetworkNode, config: AITFConfig,
                 event_log: ProtocolEventLog, directory: NodeDirectory,
                 filters: FilterTable, *, cooperative: bool) -> None:
        self.node = node
        self.config = config
        self.log = event_log
        self.directory = directory
        #: The table this agent's filters go into.
        self.filters = filters
        #: A cooperative node honours filtering requests that designate it.
        self.cooperative = cooperative
        #: Labels this node asked to have blocked, with their expiry times:
        #: what it answers verification queries from (a host also skips
        #: re-sending a request that is still outstanding).
        self.wanted_blocks: Dict[FlowLabel, float] = {}
        self.queries_answered = 0
        node.control_handler = self._handle_control

    @property
    def sim(self):
        """The simulator this agent's node runs on."""
        return self.node.sim

    @property
    def name(self) -> str:
        """The node's name."""
        return self.node.name

    def wants_blocked(self, label: FlowLabel) -> bool:
        """True when this node has an unexpired request out for ``label``."""
        expiry = self.wanted_blocks.get(label)
        if expiry is None:
            return False
        if expiry <= self.sim.now:
            del self.wanted_blocks[label]
            return False
        return True

    # ------------------------------------------------------------------
    # the four messages
    # ------------------------------------------------------------------
    def _handle_control(self, packet: Packet, link: Optional[Link]) -> None:
        payload = packet.payload
        if isinstance(payload, FilteringRequest):
            self._on_request(payload, packet, link)
        elif isinstance(payload, VerificationQuery):
            self._answer_query(payload)
        elif isinstance(payload, VerificationReply):
            self._on_reply(payload)
        elif isinstance(payload, DisconnectNotice):
            self._on_notice(payload, packet)

    def _on_request(self, request: FilteringRequest, packet: Packet,
                    link: Optional[Link]) -> None:
        raise NotImplementedError

    def _answer_query(self, query: VerificationQuery) -> None:
        """Answer a 3-way-handshake verification query (Section II-E)."""
        reply = query.matching_reply(confirmed=self.wants_blocked(query.label),
                                     responder=self.node.address)
        self._send_control(query.querier, PacketKind.VERIFICATION_REPLY, reply)
        self.queries_answered += 1

    def _on_reply(self, reply: VerificationReply) -> None:
        """Only a querying gateway has a use for a verification reply."""

    def _on_notice(self, notice: DisconnectNotice, packet: Packet) -> None:
        """A disconnection is the offender's operators' business."""

    # ------------------------------------------------------------------
    # sending and filtering
    # ------------------------------------------------------------------
    def _control_packet(self, destination: IPAddress, kind: PacketKind,
                        payload) -> Packet:
        return Packet.control(src=self.node.address, dst=destination, kind=kind,
                              payload=payload, created_at=self.sim.now)

    def _send_control(self, destination: IPAddress, kind: PacketKind,
                      payload) -> bool:
        packet = self._control_packet(destination, kind, payload)
        if self.node.owns_address(destination):
            self.node.deliver_locally(packet, None)
            return True
        return self.node.send(packet)

    def _install_filter(self, request: FilteringRequest, timeout: float,
                        purpose: str) -> Optional[FilterEntry]:
        """A filter on ``request``'s label, or None (and a logged failure)
        when the table is full."""
        try:
            return self.filters.install(
                request.label, timeout, reason=f"{purpose} #{request.request_id}")
        except FilterTableFullError:
            self.log.record(self.sim.now, EventType.FILTER_INSTALL_FAILED,
                            self.name, request.request_id,
                            table=self.filters_kind)
            return None
