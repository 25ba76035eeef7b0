"""Node classes: hosts and border routers.

Only two kinds of node speak AITF (Section II-C): end-hosts and border
routers.  Internal routers do not participate, so the simulator does not
model them — a multi-hop AD interior is folded into the latency of the links
between border routers.

:class:`NetworkNode` carries the data path, written once over "``count``
copies of this packet" (a lone packet is ``count = 1``, a
:class:`~repro.net.train.PacketTrain` passes its template, its count and
itself): attached links, a static routing table, origination behind an
optional outbound filter table, local delivery to applications (receive
callbacks) and disconnection state.  :class:`Host` adds a single address and
a default gateway.  :class:`BorderRouter` adds the pipeline every forwarded
data packet goes through:

    ingress filter -> wire-speed filter table -> route-record stamp -> route lookup -> link

The AITF protocol engine (:mod:`repro.core`) attaches to these nodes via the
``control_handler`` and ``forward_observers`` hooks rather than subclassing,
so the same node classes also serve the Pushback and manual-filtering
baselines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union, ValuesView)

from repro.net.address import IPAddress, Prefix
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.train import PacketTrain
from repro.router.filter_table import _NO_ENTRIES, FilterTable
from repro.router.ingress import _NO_POLICY, _NO_STATS, IngressFilter
from repro.router.routing import _MISS, _NO_MEMO, _NO_NEXT_HOPS, _NO_ROWS, RoutingTable
from repro.sim.engine import Simulator

#: Hooks are handed the train when there is one: ``(packet)`` or
#: ``(template, train)``; ``(packet, link)`` or ``(template, link, train)``.
PacketCallback = Callable[..., None]
ForwardObserver = Callable[..., None]
ControlHandler = Callable[[Packet, Link], None]

#: Module-local alias: enum member lookups cost an attribute access per
#: packet on the forwarding path.
_DATA = PacketKind.DATA

#: ``disconnected_links`` of every node that never disconnected a link.
_NONE_DISCONNECTED: FrozenSet[Link] = frozenset()

#: The receive callbacks, forward observers and local prefixes of every
#: node that never registered one; a node takes a list of its own on its
#: first registration.
_NO_HOOKS: Tuple = ()


@dataclass(slots=True)
class NodeStats:
    """Per-node packet counters.

    An arrival is counted once, on the pipe it came over (the link's
    ``packets_delivered`` toward this node), so ``packets_received`` and
    ``bytes_received`` are read as the sum over the node's incoming pipes.
    """

    packets_forwarded: int = 0
    packets_delivered: int = 0
    packets_originated: int = 0
    packets_dropped_filter: int = 0
    packets_dropped_ingress: int = 0
    packets_dropped_no_route: int = 0
    packets_dropped_disconnected: int = 0
    packets_dropped_ttl: int = 0
    #: Arrivals an on-path attacker hooked and swallowed
    #: (:class:`~repro.attacks.malicious.CompromisedRouterBehaviour`).
    packets_dropped_suppressed: int = 0
    bytes_delivered: int = 0
    _node: Optional["NetworkNode"] = field(default=None, repr=False,
                                           compare=False)

    def _arrivals(self) -> Tuple[int, int]:
        packets = nbytes = 0
        node = self._node
        for link in node.links if node is not None else ():
            stats = link.stats_toward(node)
            packets += stats.packets_delivered
            nbytes += stats.bytes_delivered
        return packets, nbytes

    @property
    def packets_received(self) -> int:
        return self._arrivals()[0]

    @property
    def bytes_received(self) -> int:
        return self._arrivals()[1]


class NetworkNode:
    """Base class for every simulated node."""

    def __init__(self, sim: Simulator, name: str, network: str = "") -> None:
        self.sim = sim
        # Interned: route-record stamps compare and append this exact object.
        self.name = sys.intern(name)
        #: The AITF network (Autonomous Domain) this node belongs to.
        self.network = network or name
        self.links: List[Link] = []
        self.routing = RoutingTable(self.name)
        self.stats = NodeStats(_node=self)
        #: The addresses this node owns, keyed on :attr:`IPAddress.value`:
        #: the receive path asks ``packet.dst.value in`` it, an int probe
        #: that calls no ``IPAddress.__hash__``.
        self._addresses: Dict[int, IPAddress] = {}
        #: Links this node has administratively disconnected (Section II-C
        #: escalation endgame: "G_gw3 disconnects from B_gw3"); a set of its
        #: own from the first disconnect on.
        self.disconnected_links: AbstractSet[Link] = _NONE_DISCONNECTED
        #: Invoked for control (AITF/pushback) packets addressed to this node.
        self.control_handler: Optional[ControlHandler] = None
        #: Applications: invoked for data packets addressed to this node.
        self._receive_callbacks: Sequence[PacketCallback] = _NO_HOOKS
        #: Optional outbound filter table installed by the AITF host agent:
        #: a cooperative attacker stops its own undesired flows by dropping
        #: them here before they reach the access link (Section IV-D — the
        #: client needs na = R2*T filters of its own).
        self.outbound_filter: Optional[FilterTable] = None
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
        self._addresses.setdefault(address.value, address)
        return address

    @property
    def addresses(self) -> ValuesView[IPAddress]:
        """The addresses this node owns (a live view)."""
        return self._addresses.values()

    def owns_address(self, address: Union[str, IPAddress]) -> bool:
        """True when ``address`` belongs to this node."""
        return IPAddress.parse(address).value in self._addresses

    @property
    def address(self) -> IPAddress:
        """The node's primary address (first registered)."""
        if not self._addresses:
            raise RuntimeError(f"node {self.name} has no address assigned")
        return min(self._addresses.values())

    def on_receive(self, callback: PacketCallback) -> None:
        """Register an application callback invoked for every delivered data packet.

        A lone packet arrives as ``callback(packet)``.  When a whole
        :class:`~repro.net.train.PacketTrain` is delivered at once (train
        engine) the call is ``callback(template, train)`` — once, never
        replayed per packet — so a callback that only takes the packet fails
        loudly there instead of under-counting.
        """
        if self._receive_callbacks is _NO_HOOKS:
            self._receive_callbacks = []
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
        if self.disconnected_links is _NONE_DISCONNECTED:
            self.disconnected_links = set()
        self.disconnected_links.add(link)

    def reconnect_link(self, link: Link) -> None:
        """Undo :meth:`disconnect_link`."""
        if self.disconnected_links:
            self.disconnected_links.discard(link)

    def is_disconnected(self, link: Link) -> bool:
        """True when this node refuses traffic over ``link``."""
        return link in self.disconnected_links

    # ------------------------------------------------------------------
    # receive path (a lone packet is the default arguments; a train passes
    # its template, its count and itself)
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet, link: Link, count: int = 1,
                       train: Optional[PacketTrain] = None) -> None:
        """Entry point called by links delivering traffic to this node: the
        arrival count and the disconnection check, then local delivery or
        forwarding.  :class:`BorderRouter` replaces it with its pipeline."""
        # Link.arrived, inlined: the pipe's receiver-side counters.
        pipe = link._pipe_to_b if link.b is self else link._pipe_to_a
        if pipe is None:
            pipe = link.pipe_toward(self)
        counts = pipe._counts
        counts.packets_delivered += count
        counts.bytes_delivered += count * packet.size
        if link in self.disconnected_links:
            self.stats.packets_dropped_disconnected += count
            return
        if packet.dst.value in self._addresses:
            self.deliver_locally(packet, link, count, train)
        else:
            self.forward_packet(packet, link, count, train)

    def receive_train(self, train: PacketTrain, link: Link) -> None:
        """The :class:`~repro.net.link.PacketSink` adapter fluid pipes call."""
        self.receive_packet(train.template, link, train.count, train)

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
        # RoutingTable.next_link, inlined on a memo hit.
        out_link = self.routing._cache.get(packet.dst.value, _MISS)
        if out_link is _MISS:
            out_link = self.routing.next_link(packet.dst)
        if out_link is None:
            stats.packets_dropped_no_route += count
            return
        if out_link in self.disconnected_links:
            stats.packets_dropped_disconnected += count
            return
        stats.packets_forwarded += count
        # Link.pipe_from, inlined while the pipes exist.
        pipe = (out_link._pipe_to_b if out_link.a is self else
                out_link._pipe_to_a if out_link.b is self else None)
        if pipe is None:
            pipe = out_link.pipe_from(self)
        if train is None:
            pipe.send(packet)
        else:
            pipe.send_train(train)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, count: int = 1,
             train: Optional[PacketTrain] = None) -> bool:
        """Send ``count`` copies of a packet created by this node — the
        entry point for traffic generators and protocol agents alike.

        Data packets pass the outbound filter table first (control packets
        always go out, otherwise a host that filtered itself could never
        send or answer AITF messages).  A table without filters, the usual
        case, is answered here (``packets_checked += count``), the way
        :meth:`BorderRouter.receive_packet` answers its own; otherwise the
        table's ``blocks_train`` at interval 0 decides, so the verdict at
        the first packet covers all ``count`` and counts as ``count``.  A
        train is homogeneous, so that verdict and the one route lookup
        cover every packet in it.  The chain from a tick to the wire is
        ``TrainProcess._wakeup`` → ``TrafficSource._emit`` → ``clone`` →
        here → ``_Pipe.send``, with no call in between.
        """
        if packet.kind is _DATA:
            table = self.outbound_filter
            if table is not None:
                if not table._entries:
                    table.packets_checked += count
                elif table.blocks_train(packet, count, 0.0)[0] is not None:
                    self.stats_outbound_suppressed += count
                    return False
        packet.created_at = self.sim._now
        self.stats.packets_originated += count
        out_link = self.routing._cache.get(packet.dst.value, _MISS)
        if out_link is _MISS:
            out_link = self.routing.next_link(packet.dst)
        if out_link is None:
            self.stats.packets_dropped_no_route += count
            return False
        if out_link in self.disconnected_links:
            self.stats.packets_dropped_disconnected += count
            return False
        pipe = (out_link._pipe_to_b if out_link.a is self else
                out_link._pipe_to_a if out_link.b is self else None)
        if pipe is None:
            pipe = out_link.pipe_from(self)
        if train is None:
            return pipe.send(packet)
        return pipe.send_train(train)

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
            capacity=filter_capacity, clock=sim.clock, name=name
        )
        self.ingress = IngressFilter(enforce=ingress_enforce, name=name)
        #: Observers see every data packet the router is about to forward
        #: (after filtering); the AITF victim-gateway agent uses this for
        #: on-off detection against its shadow cache.
        self.forward_observers: Sequence[ForwardObserver] = _NO_HOOKS
        #: Border routers stamp the route-record shim unless disabled (a
        #: partial deployment turns this off on routers without AITF).
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
        self.local_prefixes: Sequence[Prefix] = _NO_HOOKS

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_local_prefix(self, prefix: Union[str, Prefix]) -> Prefix:
        """Declare a prefix as belonging to this router's own network."""
        prefix = Prefix.parse(prefix)
        if self.local_prefixes is _NO_HOOKS:
            self.local_prefixes = []
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
        if self.forward_observers is _NO_HOOKS:
            self.forward_observers = []
        self.forward_observers.append(observer)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet, link: Link, count: int = 1,
                       train: Optional[PacketTrain] = None,
                       count_checked: bool = True) -> None:
        """The forwarding pipeline, for a lone packet or a whole train: the
        one entry point links deliver to (and the one an on-path attacker
        hooks, see :class:`~repro.attacks.malicious.CompromisedRouterBehaviour`).

        Label-level decisions (ingress policy, filter match, route) are made
        once and multiplied by ``count``.  The two genuinely per-packet
        decision points split or scale a train instead: a filter expiring
        mid-train blocks only the leading packets and the remainder
        re-enters here at its own nominal time, and traffic conditioners
        (Pushback rate limiters) scale the count.  Both dispatch on ``train
        is None``, never on ``count == 1`` — splits and scaling leave
        one-packet trains, which must stay trains.
        """
        # A split remainder (count_checked False) was received, passed the
        # disconnection check and ingress, and had its filter-table check
        # counted with the whole train: it must re-*decide* (a newer filter
        # may block it) without re-*counting*.
        if count_checked:
            # Link.arrived, inlined: the pipe's receiver-side counters.
            pipe = link._pipe_to_b if link.b is self else link._pipe_to_a
            if pipe is None:
                pipe = link.pipe_toward(self)
            counts = pipe._counts
            counts.packets_delivered += count
            counts.bytes_delivered += count * packet.size
            if link in self.disconnected_links:
                self.stats.packets_dropped_disconnected += count
                return
        if packet.dst.value in self._addresses:
            self.deliver_locally(packet, link, count, train)
            return
        if packet.kind is not _DATA:
            # Control traffic is forwarded without data-plane filtering so a
            # victim can always reach its gateway, and gateways each other.
            self.forward_packet(packet, link, count, train)
            return
        if count_checked:
            # IngressFilter.check, decided here for a source that passes: a
            # router without a policy tests an empty dict, a policed link is
            # looked up once per packet, and only a source matching none of
            # its prefixes goes to IngressFilter.passes.
            ingress = self.ingress
            allowed = ingress._allowed
            if allowed:
                prefixes = allowed.get(link)
                if prefixes:
                    src_value = packet.src.value
                    for prefix in prefixes:
                        if (src_value & prefix._mask) == prefix._network_value:
                            ingress.stats.packets_passed += count
                            break
                    else:
                        if not ingress.passes(packet, prefixes, count):
                            self.stats.packets_dropped_ingress += count
                            return
        table = self.filter_table
        if train is None:
            if not table._entries:
                # FilterTable.blocks, inlined for a table without filters.
                table.packets_checked += 1
            elif table.blocks(packet) is not None:
                self.stats.packets_dropped_filter += 1
                return
        else:
            _, blocked = table.blocks_train(
                packet, count, train.interval, count_checked)
            if blocked:
                self.stats.packets_dropped_filter += blocked
                if blocked < count:
                    # Split: the filter expires mid-train.  The remainder
                    # re-arrives when its first packet is nominally due, at
                    # which point the expired filter has been purged.
                    train.count = count - blocked
                    self.sim.fire_at(self.sim._now + blocked * train.interval,
                                     self.receive_packet, packet, link,
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


#: Every per-node container that starts as a shared empty constant: its
#: attribute path on a node, and that constant.
SHARED_UNTIL_WRITTEN: Tuple[Tuple[str, object], ...] = (
    ("routing._rows", _NO_ROWS),
    ("routing._next_hops", _NO_NEXT_HOPS),
    ("routing._cache", _NO_MEMO),
    ("ingress._allowed", _NO_POLICY),
    ("ingress.stats", _NO_STATS),
    ("filter_table._entries", _NO_ENTRIES),
    ("_receive_callbacks", _NO_HOOKS),
    ("forward_observers", _NO_HOOKS),
    ("local_prefixes", _NO_HOOKS),
)


def private_containers(node: NetworkNode) -> List[str]:
    """The paths in :data:`SHARED_UNTIL_WRITTEN` of the containers ``node``
    owns, having written to them (a host has no ingress filter, filter
    table, forward observers or local prefixes)."""
    owned = []
    for path, shared in SHARED_UNTIL_WRITTEN:
        holder, _, name = path.rpartition(".")
        value = getattr(getattr(node, holder, None) if holder else node,
                        name, shared)
        if value is not shared:
            owned.append(path)
    return owned
