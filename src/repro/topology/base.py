"""Topology construction kit.

A :class:`Topology` owns the simulator, the address allocator, every node and
link of a scenario, and arms routing once the shape is final.  The concrete
builders (:mod:`repro.topology.figure1`, :mod:`repro.topology.tree`,
:mod:`repro.topology.powerlaw`) are thin layers over this class.

Routing follows delay-weighted shortest paths over the topology's own
adjacency (:mod:`repro.topology.adjacency`), written into a router's
longest-prefix-match table the first time it looks a destination up
(:mod:`repro.topology.dynamic`) — the paper treats routing as a given (BGP
convergence is out of scope), so static routes are the right fidelity.
networkx is not imported by a run; :attr:`Topology.graph` and
:attr:`Topology.routing_graph` render ``nx.Graph`` views on first access,
for analysis and as the oracle the native search is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.net.address import AddressAllocator, IPAddress, Prefix
from repro.net.link import Link
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.sim.engine import Simulator
from repro.topology.adjacency import (
    Adjacency,
    add_edge,
    copy_without,
    no_path,
    nx_view,
    remove_edge,
    shortest_path_tree,
)
from repro.topology.dynamic import DynamicRouting, edge_key

#: Default link speeds (bits per second) by tier.
ACCESS_BANDWIDTH = 100e6
TAIL_CIRCUIT_BANDWIDTH = 10e6
BACKBONE_BANDWIDTH = 1e9

#: Default one-way link delays (seconds) by tier.
ACCESS_DELAY = 0.001
REGIONAL_DELAY = 0.010
BACKBONE_DELAY = 0.020


class Topology:
    """Nodes, links and routes for one simulated internetwork."""

    def __init__(self, sim: Optional[Simulator] = None,
                 address_pool: Union[str, Prefix] = "10.0.0.0/8") -> None:
        self.sim = sim or Simulator()
        self.allocator = AddressAllocator(address_pool)
        self.nodes: Dict[str, NetworkNode] = {}
        self.links: List[Link] = []
        #: The as-built shape, ``{name: {neighbour: link}}`` in creation /
        #: connection order (the order equal-cost ties break in).
        self.adjacency: Adjacency = {}
        # Fault-injection state: the live adjacency (as built minus downed
        # edges) materialises lazily on the first fault, so fault-free runs
        # never copy it; the dynamic-routing helper likewise only exists
        # once churn is requested.
        self._live_adjacency: Optional[Adjacency] = None
        self._down_edges: set = set()
        # nx.Graph renderings of the two adjacencies, dropped on any change.
        self._views: dict = {}
        #: Bumped on every link flip; rerouting caches key on it.
        self.link_epoch = 0
        self._dynamic = None

    # ------------------------------------------------------------------
    # node creation
    # ------------------------------------------------------------------
    def add_host(self, name: str, network: str,
                 address: Optional[Union[str, IPAddress]] = None,
                 prefix: Optional[Prefix] = None) -> Host:
        """Create an end-host inside ``network``.

        When ``prefix`` is given the host address is carved from it; otherwise
        a fresh /32 is allocated.
        """
        self._check_unique(name)
        if address is None:
            address = (self.allocator.allocate_host(prefix) if prefix is not None
                       else self.allocator.allocate_host())
        host = Host(self.sim, name, address, network=network)
        self._add_node(host)
        return host

    def add_border_router(self, name: str, network: str,
                          address: Optional[Union[str, IPAddress]] = None,
                          *, filter_capacity: Optional[int] = 1000,
                          local_prefix: Optional[Prefix] = None) -> BorderRouter:
        """Create a border router for ``network``."""
        self._check_unique(name)
        if address is None:
            address = self.allocator.allocate_host()
        router = BorderRouter(self.sim, name, address, network=network,
                              filter_capacity=filter_capacity)
        if local_prefix is not None:
            router.add_local_prefix(local_prefix)
        self._add_node(router)
        return router

    def allocate_network_prefix(self, length: int = 24) -> Prefix:
        """Hand out a fresh prefix for a client network."""
        return self.allocator.allocate_prefix(length)

    # ------------------------------------------------------------------
    # linking
    # ------------------------------------------------------------------
    def connect(self, a: Union[str, NetworkNode], b: Union[str, NetworkNode],
                *, bandwidth_bps: float = ACCESS_BANDWIDTH,
                delay: float = ACCESS_DELAY,
                queue_capacity_bytes: int = 128_000) -> Link:
        """Create a bidirectional link between two existing nodes."""
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        link = Link(self.sim, node_a, node_b, bandwidth_bps=bandwidth_bps,
                    delay=delay, queue_capacity_bytes=queue_capacity_bytes)
        node_a.attach_link(link)
        node_b.attach_link(link)
        self.links.append(link)
        add_edge(self.adjacency, link)
        self._views.clear()
        return link

    def link_between(self, a: Union[str, NetworkNode],
                     b: Union[str, NetworkNode]) -> Optional[Link]:
        """The link directly connecting two nodes, if any."""
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        return self.adjacency[node_a.name].get(node_b.name)

    # ------------------------------------------------------------------
    # fault injection / route churn
    # ------------------------------------------------------------------
    @property
    def routing_adjacency(self) -> Adjacency:
        """The adjacency live routes are computed over.

        Identical to :attr:`adjacency` until a fault downs a link;
        afterwards it is the built shape minus the currently-down edges, so
        path queries (:meth:`path_between`, :meth:`border_router_path`) and
        incremental recomputation see the network as it is *now*.
        """
        live = self._live_adjacency
        return live if live is not None else self.adjacency

    @property
    def graph(self):
        """The as-built shape as an ``nx.Graph`` (see
        :func:`repro.topology.adjacency.nx_view`): a detached rendering,
        rebuilt after the topology next changes."""
        return self._view("graph", self.adjacency)

    @property
    def routing_graph(self):
        """:attr:`routing_adjacency` as an ``nx.Graph``; the same object as
        :attr:`graph` until a fault downs a link."""
        if self._live_adjacency is None:
            return self.graph
        return self._view("routing_graph", self._live_adjacency)

    def _view(self, name: str, adjacency: Adjacency):
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = nx_view(adjacency)
        return view

    def set_link_state(self, link: Link, up: bool) -> bool:
        """Bring ``link`` up or down, keeping the live adjacency in sync.

        Returns True when the state actually changed.  Routing tables are
        *not* touched here — call :meth:`reroute_incremental` afterwards.
        """
        changed = link.set_up() if up else link.set_down()
        if not changed:
            return False
        if self._live_adjacency is None:
            self._live_adjacency = copy_without(self.adjacency)
        self.link_epoch += 1
        self._views.clear()
        key = edge_key(link.a.name, link.b.name)
        if up:
            # Re-inserted, so the restored edge is now its endpoints' *last*
            # neighbour: equal-cost tie-breaking after link_up depends on it.
            add_edge(self._live_adjacency, link)
            self._down_edges.discard(key)
        else:
            remove_edge(self._live_adjacency, link)
            self._down_edges.add(key)
        return True

    def ensure_dynamic_routing(self):
        """Build (once) and return the routing core: the one that writes
        router rows when they are asked for and reroutes on faults."""
        if self._dynamic is None:
            self._dynamic = DynamicRouting(self)
        return self._dynamic

    def reroute_incremental(self, *, downed=(), restored=()) -> Dict[str, int]:
        """Delta-update routing tables after link state changes.

        ``downed`` / ``restored`` are the :class:`Link` objects whose state
        just flipped.  Only the destinations somebody asked for whose routes
        used a downed edge — or could improve via a restored one — are
        recomputed (one anchor-rooted solve each), and only on the routers
        that asked.  Returns the work counters
        (``anchors_recomputed``, ``dijkstras``, ``routes_installed``,
        ``routes_removed``).
        """
        return self.ensure_dynamic_routing().apply(downed=downed, restored=restored)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Install host default routes and arm routing on every router.

        Hosts get a default route pointing at their (single) access link.
        No router row is written here: the routing core
        (:meth:`ensure_dynamic_routing`, see :mod:`repro.topology.dynamic`)
        hooks every router's table miss, and a router's first lookup toward
        a destination anchor solves that anchor once and writes the
        anchor's rows on that router only.  The destination set is every
        node's own addresses (/32) plus every declared local prefix.

        Calling it again starts routing over on the topology as it is now:
        router rows are dropped and a fresh core takes the hooks.
        """
        for node in self.nodes.values():
            if isinstance(node, Host):
                self._install_host_default(node)
            else:
                node.routing.clear()
        self._dynamic = None
        self.ensure_dynamic_routing().attach()

    def _install_host_default(self, host: Host) -> None:
        if not host.links:
            return
        host.set_gateway(host.links[0])

    def _destination_prefixes(self) -> Dict[str, List[Prefix]]:
        destinations: Dict[str, List[Prefix]] = {}
        for name, node in self.nodes.items():
            prefixes = [Prefix(address, 32) for address in sorted(node.addresses)]
            if isinstance(node, BorderRouter):
                prefixes.extend(node.local_prefixes)
            destinations[name] = prefixes
        return destinations

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> NetworkNode:
        """The named node (KeyError when absent)."""
        return self.nodes[name]

    def hosts(self) -> List[Host]:
        """Every end-host, in creation order."""
        return [n for n in self.nodes.values() if isinstance(n, Host)]

    def border_routers(self) -> List[BorderRouter]:
        """Every border router, in creation order."""
        return [n for n in self.nodes.values() if isinstance(n, BorderRouter)]

    def all_nodes(self) -> List[NetworkNode]:
        """Every node, in creation order."""
        return list(self.nodes.values())

    def path_between(self, a: Union[str, NetworkNode],
                     b: Union[str, NetworkNode]) -> List[str]:
        """Node names along the delay-shortest *live* path from a to b.

        Computed over :attr:`routing_adjacency`, so after a fault the answer
        reflects the rerouted network, not the as-built one.  Raises
        ``networkx.NetworkXNoPath`` when a fault has disconnected the pair.
        """
        source = self._resolve(a).name
        target = self._resolve(b).name
        dist, pred = shortest_path_tree(self.routing_adjacency, source, target)
        if target not in dist:
            raise no_path(f"Node {target} not reachable from {source}")
        path = [target]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def border_router_path(self, source: Union[str, NetworkNode],
                           destination: Union[str, NetworkNode]) -> Tuple[str, ...]:
        """Border routers a flow from ``source`` to ``destination`` crosses.

        Ordered source-side first, which is the attack-path convention
        (attacker's gateway first) when the source is the attacker.
        """
        names = self.path_between(source, destination)
        return tuple(n for n in names if isinstance(self.nodes[n], BorderRouter))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_node(self, node: NetworkNode) -> None:
        self.nodes[node.name] = node
        self.adjacency[node.name] = {}
        self._views.clear()

    def _resolve(self, node: Union[str, NetworkNode]) -> NetworkNode:
        if isinstance(node, NetworkNode):
            return node
        return self.nodes[node]

    def _check_unique(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"a node named {name!r} already exists in this topology")
