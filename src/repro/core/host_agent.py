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

from typing import Callable, List, Optional, Tuple

from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.core.messages import AITFAgent, FilteringRequest, RequestRole
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.filter_table import FilterTable
from repro.router.nodes import Host

#: Callback a traffic source registers to be told "stop sending flows
#: matching this label"; it returns True when it actually stopped something.
StopCallback = Callable[[FlowLabel], bool]


class HostAgent(AITFAgent):
    """The AITF protocol engine attached to one :class:`repro.router.Host`."""

    filters_kind = "outbound"

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
        # The host's own outbound filters (Section IV-D: na = R2·T slots).
        filters = FilterTable(capacity=outbound_filter_capacity,
                              clock=host.sim.clock, name=f"{host.name}-outbound")
        super().__init__(host, config, event_log, directory, filters,
                         cooperative=cooperative)
        #: Traffic sources that can be told to stop an undesired flow.
        self._stop_callbacks: List[StopCallback] = []
        self.requests_sent = 0
        self.flows_stopped = 0
        host.outbound_filter = filters

    @property
    def outbound_filters(self) -> FilterTable:
        """The host's own outbound filters, checked on every packet it sends."""
        return self.filters

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
        now = self.sim.now
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
            requestor=self.name,
            victim=self.node.address,
        )
        gateway_address = self._gateway_address()
        if gateway_address is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="no gateway")
            return None
        self._send_control(gateway_address, PacketKind.FILTERING_REQUEST, request)
        self.requests_sent += 1
        self.log.record(now, EventType.REQUEST_SENT, self.name,
                        request.request_id, role=request.role.value,
                        label=str(label), round=1)
        return request

    # ------------------------------------------------------------------
    # attacker role
    # ------------------------------------------------------------------
    def on_stop_request(self, callback: StopCallback) -> None:
        """Register a traffic source that can stop flows on request."""
        self._stop_callbacks.append(callback)

    def _on_request(self, request: FilteringRequest, packet: Packet,
                    link: Optional[Link]) -> None:
        now = self.sim.now
        self.log.record(now, EventType.REQUEST_RECEIVED, self.name,
                        request.request_id, role=request.role.value)
        if request.role is not RequestRole.TO_ATTACKER:
            # End-hosts are only ever addressed as attackers; anything else is
            # a misrouted or forged message.
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="unexpected role at end-host")
            return
        if not self.cooperative:
            # A compromised host ignores the request and accepts the risk of
            # disconnection (Section II-C).
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="non-cooperative host")
            return
        self._stop_flow(request)

    def _stop_flow(self, request: FilteringRequest) -> None:
        """Honour a filtering request addressed to this host as the attacker."""
        stopped_anything = False
        for callback in self._stop_callbacks:
            if callback(request.label):
                stopped_anything = True
        if self._install_filter(request, request.timeout, "request") is None:
            return
        self.flows_stopped += 1
        self.log.record(self.sim.now, EventType.FLOW_STOPPED, self.name,
                        request.request_id, label=str(request.label),
                        generators_stopped=stopped_anything)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _gateway_address(self) -> Optional[IPAddress]:
        """The address of this host's gateway (the other end of its access link)."""
        route = self.node.routing.default_route
        if route is None:
            return None
        gateway = route.link.other_end(self.node)
        if not gateway.addresses:
            return None
        return gateway.address
