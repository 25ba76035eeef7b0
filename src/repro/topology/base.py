"""Topology construction kit.

A :class:`Topology` owns the simulator, the address allocator, every node and
link of a scenario, and knows how to compute static routes once the shape is
final.  The concrete builders (:mod:`repro.topology.figure1`,
:mod:`repro.topology.tree`, :mod:`repro.topology.powerlaw`) are thin layers
over this class.

Routing is computed with networkx shortest paths over the node graph, then
frozen into each node's longest-prefix-match table — the paper treats routing
as a given (BGP convergence is out of scope), so static routes are the right
fidelity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import networkx as nx

from repro.net.address import AddressAllocator, IPAddress, Prefix
from repro.net.link import Link
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.sim.engine import Simulator
from repro.topology.dynamic import (
    DynamicRouting,
    edge_key,
    fold_leaves,
    project_routers,
)

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
        self.graph = nx.Graph()
        # Fault-injection state: the live graph (built graph minus downed
        # edges) materialises lazily on the first fault, so fault-free runs
        # never copy the graph; the dynamic-routing helper likewise only
        # exists once churn is requested.
        self._live_graph: Optional[nx.Graph] = None
        self._down_edges: set = set()
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
        self.nodes[name] = host
        self.graph.add_node(name)
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
        self.nodes[name] = router
        self.graph.add_node(name)
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
        self.graph.add_edge(node_a.name, node_b.name, link=link, delay=delay)
        return link

    def link_between(self, a: Union[str, NetworkNode],
                     b: Union[str, NetworkNode]) -> Optional[Link]:
        """The link directly connecting two nodes, if any."""
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        data = self.graph.get_edge_data(node_a.name, node_b.name)
        return data["link"] if data else None

    # ------------------------------------------------------------------
    # fault injection / route churn
    # ------------------------------------------------------------------
    @property
    def routing_graph(self) -> nx.Graph:
        """The graph live routes are computed over.

        Identical to :attr:`graph` until a fault downs a link; afterwards it
        is the built graph minus the currently-down edges, so path queries
        (:meth:`path_between`, :meth:`border_router_path`) and incremental
        recomputation see the network as it is *now*.
        """
        return self._live_graph if self._live_graph is not None else self.graph

    def set_link_state(self, link: Link, up: bool) -> bool:
        """Bring ``link`` up or down, keeping the live graph in sync.

        Returns True when the state actually changed.  Routing tables are
        *not* touched here — call :meth:`reroute_incremental` (or a full
        :meth:`build_routes`) afterwards.
        """
        changed = link.set_up() if up else link.set_down()
        if not changed:
            return False
        key = (link.a.name, link.b.name)
        if self._live_graph is None:
            self._live_graph = self.graph.copy()
        self.link_epoch += 1
        if up:
            data = self.graph.get_edge_data(*key)
            self._live_graph.add_edge(*key, **data)
            self._down_edges.discard(edge_key(*key))
        else:
            self._live_graph.remove_edge(*key)
            self._down_edges.add(edge_key(*key))
        return True

    def ensure_dynamic_routing(self):
        """Build (once) and return the incremental-rerouting helper."""
        if self._dynamic is None:
            self._dynamic = DynamicRouting(self)
        return self._dynamic

    def reroute_incremental(self, *, downed=(), restored=()) -> Dict[str, int]:
        """Delta-update routing tables after link state changes.

        ``downed`` / ``restored`` are the :class:`Link` objects whose state
        just flipped.  Only destinations whose installed routes actually used
        a downed edge — or could improve via a restored one — are recomputed
        (one single-source Dijkstra each), instead of one per router as a
        full :meth:`build_routes` would pay.  Returns the work counters
        (``anchors_recomputed``, ``dijkstras``, ``routes_installed``,
        ``routes_removed``).
        """
        return self.ensure_dynamic_routing().apply(downed=downed, restored=restored)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Compute and install static routes on every node.

        Hosts get a default route pointing at their (single) access link.
        Routers get one route per destination prefix: the destination set is
        every node's own addresses (/32) plus every declared local prefix,
        with next hops taken from networkx shortest paths weighted by link
        delay.

        One source-rooted Dijkstra runs per *router* (hosts only ever need
        their default route), over the router projection of the graph: a
        single-homed host is never interior to a path, so it is folded out
        and inherits its access router's next hop at one extra hop (see
        :func:`repro.topology.dynamic.fold_leaves`).  On a host-heavy fleet
        that is ~6x fewer nodes per search, and every installed row — and
        the order rows are installed in — is what the full-graph sweep
        yields (``tests/test_route_build.py`` keeps that sweep as the
        oracle).
        """
        fold = fold_leaves(self)
        graph = project_routers(self.graph, fold)
        # (destination, the projected node it rides on, extra hops, prefixes)
        destinations = [(name, fold.get(name, name), int(name in fold), prefixes)
                        for name, prefixes in self._destination_prefixes().items()
                        if prefixes]
        for node in self.nodes.values():
            if isinstance(node, Host):
                self._install_host_default(node)
                continue
            name = node.name
            links = {neighbor: data["link"]
                     for neighbor, data in self.graph.adj[name].items()}
            paths = nx.single_source_dijkstra_path(graph, name, weight="delay")
            install = node.routing.install
            for target, anchor, extra, prefixes in destinations:
                if anchor == name:
                    if not extra:
                        continue  # the router itself
                    link, metric = links[target], 1
                else:
                    path = paths.get(anchor)
                    if path is None:
                        continue
                    link = links[path[1]]
                    metric = len(path) - 1 + extra
                for prefix in prefixes:
                    install(prefix, link, metric)

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

        Computed over :attr:`routing_graph`, so after a fault the answer
        reflects the rerouted network, not the as-built one.  Raises
        ``networkx.NetworkXNoPath`` when a fault has disconnected the pair.
        """
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        return nx.dijkstra_path(self.routing_graph, node_a.name, node_b.name,
                                weight="delay")

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
    def _resolve(self, node: Union[str, NetworkNode]) -> NetworkNode:
        if isinstance(node, NetworkNode):
            return node
        return self.nodes[node]

    def _check_unique(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"a node named {name!r} already exists in this topology")
