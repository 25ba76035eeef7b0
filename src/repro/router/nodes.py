"""Node classes: hosts and border routers.

Only two kinds of node speak AITF (Section II-C): end-hosts and border
routers.  Internal routers do not participate, so the simulator does not
model them — a multi-hop AD interior is folded into the latency of the links
between border routers.

:class:`NetworkNode` carries the data path, written once over "``count``
copies of this packet" (a lone packet is ``count = 1``, a
:class:`~repro.net.train.PacketTrain` passes its template, its count and
itself): attached links, a static routing table, origination behind an
optional outbound guard, local delivery to applications (receive callbacks)
and disconnection state.  :class:`Host` adds a single address and a default
gateway.  :class:`BorderRouter` adds the pipeline every forwarded data packet
goes through:

    ingress filter -> wire-speed filter table -> route-record stamp -> route lookup -> link

The AITF protocol engine (:mod:`repro.core`) attaches to these nodes via the
``control_handler`` and ``forward_observers`` hooks rather than subclassing,
so the same node classes also serve the Pushback and manual-filtering
baselines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Union

from repro.net.address import IPAddress, Prefix
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.train import PacketTrain
from repro.router.filter_table import FilterTable
from repro.router.ingress import IngressFilter
from repro.router.routing import RoutingTable
from repro.sim.engine import Simulator

#: Hooks are handed the train when there is one: ``(packet)`` or
#: ``(template, train)``; ``(packet, link)`` or ``(template, link, train)``.
PacketCallback = Callable[..., None]
ForwardObserver = Callable[..., None]
ControlHandler = Callable[[Packet, Link], None]

#: Module-local alias: enum member lookups cost an attribute access per
#: packet on the forwarding path.
_DATA = PacketKind.DATA


@dataclass
class NodeStats:
    """Per-node packet counters."""

    packets_received: int = 0
    packets_forwarded: int = 0
    packets_delivered: int = 0
    packets_originated: int = 0
    packets_dropped_filter: int = 0
    packets_dropped_ingress: int = 0
    packets_dropped_no_route: int = 0
    packets_dropped_disconnected: int = 0
    packets_dropped_ttl: int = 0
    bytes_received: int = 0
    bytes_delivered: int = 0


class NetworkNode:
    """Base class for every simulated node."""

    def __init__(self, sim: Simulator, name: str, network: str = "") -> None:
        self.sim = sim
        # Interned: route-record stamps compare and append this exact object.
        self.name = sys.intern(name)
        #: The AITF network (Autonomous Domain) this node belongs to.
        self.network = network or name
        self.links: List[Link] = []
        self.routing = RoutingTable(name)
        self.stats = NodeStats()
        self.addresses: Set[IPAddress] = set()
        #: Links this node has administratively disconnected (Section II-C
        #: escalation endgame: "G_gw3 disconnects from B_gw3").
        self.disconnected_links: Set[int] = set()
        #: Invoked for control (AITF/pushback) packets addressed to this node.
        self.control_handler: Optional[ControlHandler] = None
        #: Applications: invoked for data packets addressed to this node.
        self._receive_callbacks: List[PacketCallback] = []
        #: Optional outbound guard installed by the AITF host agent: a
        #: cooperative attacker stops its own undesired flows by dropping
        #: them here before they reach the access link (Section IV-D — the
        #: client needs na = R2*T filters of its own).  Called with the
        #: packet and how many copies of it are about to leave.
        self.outbound_guard: Optional[Callable[[Packet, int], bool]] = None
        self.stats_outbound_suppressed = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        """Register a link terminating at this node (topology builders call this)."""
        if link not in self.links:
            self.links.append(link)

    def add_address(self, address: Union[str, IPAddress]) -> IPAddress:
        """Register an address owned by this node."""
        address = IPAddress.parse(address)
        self.addresses.add(address)
        return address

    def owns_address(self, address: Union[str, IPAddress]) -> bool:
        """True when ``address`` belongs to this node."""
        return IPAddress.parse(address) in self.addresses

    @property
    def address(self) -> IPAddress:
        """The node's primary address (first registered)."""
        if not self.addresses:
            raise RuntimeError(f"node {self.name} has no address assigned")
        return min(self.addresses)

    def on_receive(self, callback: PacketCallback) -> None:
        """Register an application callback invoked for every delivered data packet.

        A lone packet arrives as ``callback(packet)``.  When a whole
        :class:`~repro.net.train.PacketTrain` is delivered at once (train
        engine) the call is ``callback(template, train)`` — once, never
        replayed per packet — so a callback that only takes the packet fails
        loudly there instead of under-counting.
        """
        self._receive_callbacks.append(callback)

    def link_to(self, neighbor: "NetworkNode") -> Optional[Link]:
        """The direct link to ``neighbor``, if one exists."""
        for link in self.links:
            if link.other_end(self) is neighbor:
                return link
        return None

    # ------------------------------------------------------------------
    # disconnection
    # ------------------------------------------------------------------
    def disconnect_link(self, link: Link) -> None:
        """Stop using ``link`` entirely (the AITF escalation endgame)."""
        self.disconnected_links.add(id(link))

    def reconnect_link(self, link: Link) -> None:
        """Undo :meth:`disconnect_link`."""
        self.disconnected_links.discard(id(link))

    def is_disconnected(self, link: Link) -> bool:
        """True when this node refuses traffic over ``link``."""
        return id(link) in self.disconnected_links

    # ------------------------------------------------------------------
    # receive path (a lone packet is the default arguments; a train passes
    # its template, its count and itself)
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet, link: Link, count: int = 1,
                       train: Optional[PacketTrain] = None) -> None:
        """Entry point called by links delivering traffic to this node."""
        stats = self.stats
        stats.packets_received += count
        stats.bytes_received += count * packet.size
        if id(link) in self.disconnected_links:
            stats.packets_dropped_disconnected += count
            return
        self.handle_packet(packet, link, count, train)

    def receive_train(self, train: PacketTrain, link: Link) -> None:
        """The :class:`~repro.net.link.PacketSink` adapter fluid pipes call."""
        self.receive_packet(train.template, link, train.count, train)

    def handle_packet(self, packet: Packet, link: Link, count: int = 1,
                      train: Optional[PacketTrain] = None) -> None:
        """Dispatch accepted traffic.  Subclasses refine this."""
        # packet.dst is always an IPAddress, so the set probe needs no parse.
        if packet.dst in self.addresses:
            self.deliver_locally(packet, link, count, train)
        else:
            self.forward_packet(packet, link, count, train)

    def deliver_locally(self, packet: Packet, link: Optional[Link],
                        count: int = 1,
                        train: Optional[PacketTrain] = None) -> None:
        """The traffic is addressed to this node."""
        stats = self.stats
        stats.packets_delivered += count
        stats.bytes_delivered += count * packet.size
        if packet.kind is not _DATA:
            if self.control_handler is not None:
                self.control_handler(packet, link)
        elif train is None:
            for callback in self._receive_callbacks:
                callback(packet)
        else:
            for callback in self._receive_callbacks:
                callback(packet, train)

    def forward_packet(self, packet: Packet, incoming: Optional[Link],
                       count: int = 1,
                       train: Optional[PacketTrain] = None) -> None:
        """Route transit traffic toward its destination.

        A train's template is mutated exactly as a lone packet would be (one
        TTL decrement per hop stands for every identical packet in it).
        """
        stats = self.stats
        packet.ttl -= 1
        if packet.ttl <= 0:
            stats.packets_dropped_ttl += count
            return
        out_link = self.routing.next_link(packet.dst)
        if out_link is None:
            stats.packets_dropped_no_route += count
            return
        if id(out_link) in self.disconnected_links:
            stats.packets_dropped_disconnected += count
            return
        stats.packets_forwarded += count
        if train is None:
            out_link.send(packet, self)
        else:
            out_link.send_train(train, self)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, count: int = 1,
             train: Optional[PacketTrain] = None) -> bool:
        """Send ``count`` copies of a packet created by this node — the
        entry point for traffic generators and protocol agents alike.

        Data packets pass the outbound guard first (control packets always
        go out, otherwise a host that filtered itself could never send or
        answer AITF messages).  A train is homogeneous, so the guard's
        verdict and the one route lookup cover all ``count`` packets.
        """
        if packet.kind is _DATA and self.outbound_guard is not None:
            if not self.outbound_guard(packet, count):
                self.stats_outbound_suppressed += count
                return False
        packet.created_at = self.sim._now
        self.stats.packets_originated += count
        out_link = self.routing.next_link(packet.dst)
        if out_link is None or id(out_link) in self.disconnected_links:
            self.stats.packets_dropped_no_route += count
            return False
        if train is None:
            return out_link.send(packet, self)
        return out_link.send_train(train, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class Host(NetworkNode):
    """An end-host: one address, a default gateway, and applications on top."""

    def __init__(self, sim: Simulator, name: str, address: Union[str, IPAddress],
                 network: str = "") -> None:
        super().__init__(sim, name, network)
        self.add_address(address)

    def set_gateway(self, link: Link) -> None:
        """Point the default route at the access link."""
        self.routing.set_default(link)


class BorderRouter(NetworkNode):
    """A border router: the only kind of router that participates in AITF.

    The forwarding pipeline applied to every transit data packet is::

        disconnection check -> ingress filter -> filter table -> route-record
        stamp -> forward observers -> routing -> output link

    Control packets addressed to the router bypass the filter table (a router
    must keep receiving filtering requests even while it is blocking the
    corresponding data flow) but are still subject to contract policing in
    the protocol layer.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: Union[str, IPAddress],
        network: str = "",
        *,
        filter_capacity: Optional[int] = 1000,
        ingress_enforce: bool = False,
    ) -> None:
        super().__init__(sim, name, network)
        self.add_address(address)
        self.filter_table = FilterTable(
            capacity=filter_capacity, clock=lambda: sim._now, name=name
        )
        self.ingress = IngressFilter(enforce=ingress_enforce, name=name)
        #: Observers see every data packet the router is about to forward
        #: (after filtering); the AITF victim-gateway agent uses this for
        #: on-off detection against its shadow cache.
        self.forward_observers: List[ForwardObserver] = []
        #: Border routers stamp the route-record shim unless disabled (the
        #: probabilistic-traceback ablation turns this off).
        self.stamp_route_record = True
        #: Traffic conditioners run after the filter table and return how
        #: many of the packets pass: a bool for a lone packet
        #: (``conditioner(packet, link)``), 0..count for a train
        #: (``conditioner(template, link, train)``), which the router then
        #: scales.  The Pushback baseline installs its aggregate
        #: rate-limiters here.
        self.conditioners: List[Callable[..., int]] = []
        #: Prefixes served by this router's AD (used by topology builders and
        #: by the protocol layer to tell "my client" from "transit").
        self.local_prefixes: List[Prefix] = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_local_prefix(self, prefix: Union[str, Prefix]) -> Prefix:
        """Declare a prefix as belonging to this router's own network."""
        prefix = Prefix.parse(prefix)
        self.local_prefixes.append(prefix)
        return prefix

    def serves_address(self, address: Union[str, IPAddress]) -> bool:
        """True when ``address`` is inside one of this router's local prefixes."""
        address = IPAddress.parse(address)
        return any(prefix.contains(address) for prefix in self.local_prefixes)

    def add_forward_observer(self, observer: ForwardObserver) -> None:
        """Register a hook called for all data about to be forwarded:
        ``observer(packet, link)`` for a lone packet, ``observer(template,
        link, train)`` once for a whole train."""
        self.forward_observers.append(observer)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, link: Link, count: int = 1,
                      train: Optional[PacketTrain] = None,
                      count_checked: bool = True) -> None:
        """The forwarding pipeline, for a lone packet or a whole train.

        Label-level decisions (ingress policy, filter match, route) are made
        once and multiplied by ``count``.  The two genuinely per-packet
        decision points split or scale a train instead: a filter expiring
        mid-train blocks only the leading packets and the remainder
        re-enters here at its own nominal time, and traffic conditioners
        (Pushback rate limiters) scale the count.  Both dispatch on ``train
        is None``, never on ``count == 1`` — splits and scaling leave
        one-packet trains, which must stay trains.
        """
        if packet.dst in self.addresses:
            self.deliver_locally(packet, link, count, train)
            return
        if packet.kind is not _DATA:
            # Control traffic is forwarded without data-plane filtering so a
            # victim can always reach its gateway, and gateways each other.
            self.forward_packet(packet, link, count, train)
            return
        # A split remainder (count_checked False) already passed ingress and
        # had its filter-table check counted: it must re-*decide* (a newer
        # filter may block it) without re-*counting*.
        ingress = self.ingress
        if (count_checked and ingress._allowed.get(id(link)) is not None
                and not ingress.check(packet, link, count)):
            self.stats.packets_dropped_ingress += count
            return
        if train is None:
            if self.filter_table.blocks(packet) is not None:
                self.stats.packets_dropped_filter += 1
                return
        else:
            _, blocked = self.filter_table.blocks_train(
                packet, count, train.interval, count_checked)
            if blocked:
                self.stats.packets_dropped_filter += blocked
                if blocked < count:
                    # Split: the filter expires mid-train.  The remainder
                    # re-arrives when its first packet is nominally due, at
                    # which point the expired filter has been purged.
                    train.count = count - blocked
                    self.sim.fire_at(self.sim._now + blocked * train.interval,
                                     self.handle_packet, packet, link,
                                     train.count, train, False)
                return
        for conditioner in self.conditioners:
            if train is None:
                passed = conditioner(packet, link)
            else:
                passed = conditioner(packet, link, train)
            if passed < count:
                self.stats.packets_dropped_filter += count - passed
                if passed <= 0:
                    return
                # Count scaling: the survivors keep the train's span (their
                # mean spacing is what per-packet random drops produce), so
                # the offered rate downstream shrinks by the drop fraction.
                train.interval = count * train.interval / passed
                train.count = count = passed
        if self.stamp_route_record:
            # Inline stamp_route: self.name is interned at construction and
            # this runs once per forwarded packet per router.
            record = packet.route_record
            name = self.name
            if not record or record[-1] != name:
                record.append(name)
        if train is None:
            for observer in self.forward_observers:
                observer(packet, link)
        else:
            for observer in self.forward_observers:
                observer(packet, link, train)
        self.forward_packet(packet, link, count, train)
