"""AITF behaviour of an end-host.

An end-host plays two roles in the protocol:

* **victim** — when it detects an undesired flow it sends a filtering
  request to its gateway (Section II-C), remembers which labels it asked to
  block, and answers the 3-way-handshake verification queries the attacker's
  gateway sends it (Section II-E);
* **attacker** — when its gateway propagates a filtering request to it, a
  legitimate (cooperative) host stops the flow to avoid disconnection
  (Section II-C / IV-D).  Stopping a flow costs the host one of its own
  na = R2·T outbound filter slots.

Compromised hosts set ``cooperative=False`` and simply ignore requests; the
malicious request-forging behaviour lives in :mod:`repro.attacks.malicious`
because it is an attack, not a protocol role.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.core.messages import (
    DisconnectNotice,
    FilteringRequest,
    RequestRole,
    VerificationQuery,
)
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.filter_table import FilterTable, FilterTableFullError
from repro.router.nodes import Host

#: Callback a traffic source registers to be told "stop sending flows
#: matching this label"; it returns True when it actually stopped something.
StopCallback = Callable[[FlowLabel], bool]


class HostAgent:
    """The AITF protocol engine attached to one :class:`repro.router.Host`."""

    def __init__(
        self,
        host: Host,
        config: AITFConfig,
        event_log: ProtocolEventLog,
        directory: NodeDirectory,
        *,
        cooperative: bool = True,
        outbound_filter_capacity: Optional[int] = None,
    ) -> None:
        self.host = host
        self.config = config
        self.log = event_log
        self.directory = directory
        #: A cooperative host honours filtering requests from its gateway.
        self.cooperative = cooperative
        #: Labels this host asked to have blocked, with their expiry times;
        #: used both to answer verification queries and to avoid sending
        #: duplicate requests for the same flow.
        self.wanted_blocks: Dict[FlowLabel, float] = {}
        #: Traffic sources that can be told to stop an undesired flow.
        self._stop_callbacks: List[StopCallback] = []
        #: The host's own outbound filters (Section IV-D: na = R2·T slots).
        self.outbound_filters = FilterTable(
            capacity=outbound_filter_capacity,
            clock=host.sim.clock,
            name=f"{host.name}-outbound",
        )
        # statistics
        self.requests_sent = 0
        self.requests_received = 0
        self.queries_answered = 0
        self.flows_stopped = 0
        self.disconnect_notices = 0

        host.control_handler = self._handle_control
        host.outbound_filter = self.outbound_filters

    # ------------------------------------------------------------------
    # victim role
    # ------------------------------------------------------------------
    def request_filtering(
        self,
        label: FlowLabel,
        *,
        attack_path: Tuple[str, ...] = (),
        timeout: Optional[float] = None,
        sample_packet: Optional[Packet] = None,
        force: bool = False,
    ) -> Optional[FilteringRequest]:
        """Ask the gateway to block ``label`` for T seconds.

        ``force`` bypasses the outstanding-request dedup: a re-detection
        after route churn must be able to re-request even though the host
        still believes an earlier request is in force (the filters it
        produced no longer sit on the flow's path).

        ``attack_path`` should list the border routers recorded on the attack
        packets (attacker's gateway first); when a ``sample_packet`` is given
        instead, the path is read off its route-record shim.

        Returns the request that was sent, or None when a request for the
        same label is still outstanding (no point spamming the gateway).
        """
        now = self.host.sim.now
        timeout = timeout if timeout is not None else self.config.filter_timeout
        expiry = self.wanted_blocks.get(label)
        already_outstanding = expiry is not None and expiry > now
        self.wanted_blocks[label] = now + timeout
        if already_outstanding and not force:
            return None
        if not attack_path and sample_packet is not None:
            # The shim records attacker-side routers first already.
            attack_path = sample_packet.recorded_path
        request = FilteringRequest(
            label=label,
            timeout=timeout,
            role=RequestRole.TO_VICTIM_GATEWAY,
            attack_path=tuple(attack_path),
            round_number=1,
            requestor=self.host.name,
            victim=self.host.address,
        )
        gateway_address = self._gateway_address()
        if gateway_address is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.host.name,
                            request.request_id, reason="no gateway")
            return None
        packet = Packet.control(
            src=self.host.address,
            dst=gateway_address,
            kind=PacketKind.FILTERING_REQUEST,
            payload=request,
            created_at=now,
        )
        self.host.send(packet)
        self.requests_sent += 1
        self.log.record(now, EventType.REQUEST_SENT, self.host.name,
                        request.request_id, role=request.role.value,
                        label=str(label), round=1)
        return request

    def wants_blocked(self, label: FlowLabel) -> bool:
        """True when this host has an unexpired request out for ``label``."""
        expiry = self.wanted_blocks.get(label)
        if expiry is None:
            return False
        if expiry <= self.host.sim.now:
            del self.wanted_blocks[label]
            return False
        return True

    # ------------------------------------------------------------------
    # attacker role
    # ------------------------------------------------------------------
    def on_stop_request(self, callback: StopCallback) -> None:
        """Register a traffic source that can stop flows on request."""
        self._stop_callbacks.append(callback)

    def _stop_flow(self, request: FilteringRequest) -> bool:
        """Honour a filtering request addressed to this host as the attacker."""
        now = self.host.sim.now
        stopped_anything = False
        for callback in self._stop_callbacks:
            if callback(request.label):
                stopped_anything = True
        try:
            self.outbound_filters.install(request.label, request.timeout,
                                          reason=f"request #{request.request_id}")
        except FilterTableFullError:
            self.log.record(now, EventType.FILTER_INSTALL_FAILED, self.host.name,
                            request.request_id, table="outbound")
            return stopped_anything
        self.flows_stopped += 1
        self.log.record(now, EventType.FLOW_STOPPED, self.host.name,
                        request.request_id, label=str(request.label),
                        generators_stopped=stopped_anything)
        return True

    # ------------------------------------------------------------------
    # control-plane handling
    # ------------------------------------------------------------------
    def _handle_control(self, packet: Packet, link: Optional[Link]) -> None:
        payload = packet.payload
        if isinstance(payload, VerificationQuery):
            self._answer_query(payload)
        elif isinstance(payload, FilteringRequest):
            self._handle_filtering_request(payload)
        elif isinstance(payload, DisconnectNotice):
            self.disconnect_notices += 1

    def _handle_filtering_request(self, request: FilteringRequest) -> None:
        now = self.host.sim.now
        self.requests_received += 1
        self.log.record(now, EventType.REQUEST_RECEIVED, self.host.name,
                        request.request_id, role=request.role.value)
        if request.role is not RequestRole.TO_ATTACKER:
            # End-hosts are only ever addressed as attackers; anything else is
            # a misrouted or forged message.
            self.log.record(now, EventType.REQUEST_REJECTED, self.host.name,
                            request.request_id, reason="unexpected role at end-host")
            return
        if not self.cooperative:
            # A compromised host ignores the request and accepts the risk of
            # disconnection (Section II-C).
            self.log.record(now, EventType.REQUEST_REJECTED, self.host.name,
                            request.request_id, reason="non-cooperative host")
            return
        self._stop_flow(request)

    def _answer_query(self, query: VerificationQuery) -> None:
        """Answer a 3-way-handshake verification query (Section II-E)."""
        now = self.host.sim.now
        confirmed = self.wants_blocked(query.label)
        reply = query.matching_reply(confirmed=confirmed, responder=self.host.address)
        packet = Packet.control(
            src=self.host.address,
            dst=query.querier,
            kind=PacketKind.VERIFICATION_REPLY,
            payload=reply,
            created_at=now,
        )
        self.host.send(packet)
        self.queries_answered += 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _gateway_address(self) -> Optional[IPAddress]:
        """The address of this host's gateway (the other end of its access link)."""
        route = self.host.routing.default_route
        if route is None:
            return None
        gateway = route.link.other_end(self.host)
        if not gateway.addresses:
            return None
        return gateway.address
