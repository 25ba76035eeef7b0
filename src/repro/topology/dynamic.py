"""Incremental route recomputation: one core, two solvers.

A full :meth:`repro.topology.base.Topology.build_routes` pays one
single-source Dijkstra per router — fine once at construction, far too much
per fault event on a fleet-scale topology.  :class:`IncrementalRouting`
recomputes only the *destinations whose installed routes actually changed*:

* Destinations are grouped into **anchors**.  A single-homed host folds into
  its access router's anchor (its shortest-path tree is the router's tree
  plus one access edge), so a 200-AS / 2000-host fleet has ~200 anchors, not
  ~2200 destinations.
* ``link_down`` recomputes exactly the tracked anchors whose installed tree
  traverses the edge, which the remembered solve says: one of its two
  endpoints has the other as its next hop.  This is *exact*: a routing tree
  that does not contain the removed edge is still a valid tree of the
  reduced graph.
* ``link_up`` recomputes the tracked anchors the solver says the restored
  edge can affect (by default all of them).
* Each affected anchor costs one :meth:`~IncrementalRouting.solve`, answered
  in indexed form (:class:`Solve`), and an install pass over the *holders*
  — the routers that hold the anchor's rows — whose next hop or distance
  moved since the last solve the core installed
  (:meth:`~IncrementalRouting._recompute`), so forwarding flips atomically
  at the fault event and every other router keeps its lookup memo warm.

A subclass supplies ``solve``, which anchors are ``tracked``,
``restored_affects`` and, when not every router holds every tracked
anchor's rows, ``holders``: :class:`DynamicRouting` here (flat shortest
paths, rows everywhere) and
:class:`repro.routing_policy.manager.PolicyRoutingManager` (valley-free,
rows on the routers that asked).  The leaf fold and the router projection
(:func:`fold_leaves`, :func:`project_routers`) are the ones ``build_routes``
itself computes routes on, so the core and the builder agree on what an
anchor is.
"""

from __future__ import annotations

from typing import (Collection, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.net.address import Prefix
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
    """The per-event work counters ``apply`` returns, all zero; the two
    ``routes_*`` count rows on the routers that hold them."""
    return {"anchors_recomputed": 0, "dijkstras": 0,
            "routes_installed": 0, "routes_removed": 0}


class Solve(NamedTuple):
    """One anchor's routes in indexed form: position ``i`` is node
    ``names[i]`` and ``index_of[names[i]] == i`` (one ``names`` / ``index_of``
    pair for every solve of a solver), ``next_hop[i]`` the position of its
    next hop toward the anchor — ``-1`` for none, and for the anchor — and
    ``hops[i]`` its path length.  The core reads these four fields of
    whatever ``solve`` returns."""

    names: Sequence[str]
    index_of: Mapping[str, int]
    next_hop: List[int]
    hops: List[int]


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
        #: Anchor -> the last solve whose rows this core installed.  Only
        #: rows the core itself wrote are trusted to match it.
        self._solved: Dict[str, Solve] = {}
        #: Rows written since construction (never reset).
        self.stats = {"routes_installed": 0}

    # ------------------------------------------------------------------
    # what a solver supplies
    # ------------------------------------------------------------------
    def solve(self, anchor: str) -> Solve:
        """Every node's next hop and hop count toward ``anchor`` over the
        live edge set."""
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

    def holders(self, anchor: str, solved: Solve) -> Iterable[int]:
        """Positions in ``solved`` of the routers that hold ``anchor``'s
        remote rows and are kept in line with its solves: every one, unless
        the solver writes them on demand."""
        return range(len(solved.names))

    def forget(self) -> None:
        """Somebody else (``build_routes``) rewrote the tables: each
        anchor's next solve probes every holder again."""
        self._solved.clear()

    def _remote_rows(self, anchor: str) -> List[Tuple[Prefix, int]]:
        """``(prefix, extra hops)`` of the rows a holder other than
        ``anchor`` has for its group, via its one next hop toward it; a
        solver may narrow them (the anchor always gets its access rows)."""
        return [(prefix, extra) for member, extra in self._groups[anchor]
                for prefix in self._prefixes[member]]

    def _crosses(self, anchor: str, link: Link) -> bool:
        """Is ``link`` in ``anchor``'s installed tree?  A folded host's
        access edge is in its anchor's only; any other edge iff one of its
        ends has the other as its next hop in the remembered solve.  Not
        every router holds the rows, so the tables are asked only when no
        solve is remembered: then they are ``build_routes``' own, on every
        router, and a group's rows move together — the first speaks for
        all."""
        fold = (self._fold_anchor.get(link.a.name)
                or self._fold_anchor.get(link.b.name))
        if fold is not None:
            return fold == anchor
        solved = self._solved.get(anchor)
        if solved is not None:
            a = solved.index_of.get(link.a.name)
            b = solved.index_of.get(link.b.name)
            return (a is not None and b is not None
                    and (solved.next_hop[a] == b or solved.next_hop[b] == a))
        for prefix, _ in self._remote_rows(anchor)[:1]:
            for end in (link.a, link.b):
                route = end.routing.route_for(prefix)
                if route is not None and route.link is link:
                    return True
        return False

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
        affected = {anchor for link in downed for anchor in self.tracked()
                    if self._crosses(anchor, link)}
        for link in restored:
            affected.update(self.restored_affects(link, stats))
        for anchor in sorted(affected):
            self._recompute(anchor, stats)
        return stats

    def _recompute(self, anchor: str, stats: Dict[str, int]) -> None:
        """One solve, then bring the group's rows in line on the routers
        that hold them (:meth:`holders`, through :meth:`_install`).

        A group's rows on one router are a function of that router's single
        next hop and distance toward the anchor, and only ``build_routes``
        and the core write them, so they move together.  Against a
        remembered solve only the holders whose ``(next hop, hops)`` moved
        are visited at all; with none (first use, or rows ``build_routes``
        wrote) every holder is probed, and the anchor's own access rows
        are written."""
        solved = self.solve(anchor)
        stats["dijkstras"] += 1
        stats["anchors_recomputed"] += 1
        holders = self.holders(anchor, solved)
        before = self._solved.get(anchor)
        self._solved[anchor] = solved
        if before is not None and before.names is solved.names:
            next_hop, hops = solved.next_hop, solved.hops
            was_hop, was_far = before.next_hop, before.hops
            holders = [i for i in holders
                       if next_hop[i] != was_hop[i] or hops[i] != was_far[i]]
        else:
            # The anchor reaches its own folded hosts over their access
            # links (solvers are router-level): one next hop per host, the
            # same after every solve.
            links = self._topo.adjacency[anchor]
            install = self._topo.nodes[anchor].routing.install
            written = 0
            for member, extra in self._groups[anchor]:
                if extra:
                    link = links[member]
                    for prefix in self._prefixes[member]:
                        if install(prefix, link, extra):
                            written += 1
            stats["routes_installed"] += written
            self.stats["routes_installed"] += written
        self._install(anchor, solved, holders, stats)

    def _install(self, anchor: str, solved: Solve, positions: Iterable[int],
                 stats: Dict[str, int]) -> int:
        """The one install loop: make the routers at ``positions`` of
        ``solved`` hold ``anchor``'s remote rows via their next hop toward
        it, through :meth:`RoutingTable.install` — an unchanged ``(link,
        metric)`` row is one keyed probe and leaves the table's lookup memo
        alone, a replaced /32 drops only its own address from it, and a
        router whose first row is already in line is done after that one
        probe (routers + rows changed, not routers x rows).  A router the
        solve leaves unreachable has the rows withdrawn so stale routes
        cannot forward into a black hole (withdrawing an absent row is a
        no-op).  Counts into ``stats``; returns the rows written."""
        names, next_hop, hops = solved.names, solved.next_hop, solved.hops
        nodes = self._topo.nodes
        links = self._topo.adjacency
        remote = self._remote_rows(anchor)
        installed = 0
        for i in positions:
            name = names[i]
            node = nodes[name]
            if name == anchor or isinstance(node, Host):
                continue
            table = node.routing
            if next_hop[i] < 0:
                for prefix, _ in remote:
                    if table.remove_route(prefix):
                        stats["routes_removed"] += 1
                continue
            link = links[name][names[next_hop[i]]]
            distance = hops[i]
            install = table.install
            changed = 0
            for prefix, extra in remote:
                if install(prefix, link, distance + extra):
                    changed += 1
                elif not changed:
                    break  # first row in line: so is the rest of the group
            installed += changed
        stats["routes_installed"] += installed
        self.stats["routes_installed"] += installed
        return installed


class DynamicRouting(IncrementalRouting):
    """The flat solver: delay-weighted Dijkstra over the router graph.

    Every anchor is tracked; building it reads no table (the rows
    ``build_routes`` installed are probed by an anchor's first re-solve).
    A restored edge re-solves only the anchors whose distance could strictly
    improve via it; ties keep the previously installed (still shortest)
    routes, preserving determinism.
    """

    def __init__(self, topo) -> None:
        super().__init__(topo)
        self._graph: Optional[Adjacency] = None
        self._graph_epoch = -1
        # Solve positions: every node of the reduced graph, i.e. the anchors.
        self._names = tuple(self._groups)
        self._position = {name: i for i, name in enumerate(self._names)}

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

    def solve(self, anchor: str) -> Solve:
        dist, pred = shortest_path_tree(self._reduced_graph(), anchor)
        # In settling order a predecessor's hop count is known first; a
        # router's next hop toward the anchor is its predecessor in the
        # anchor-rooted tree.
        position = self._position
        next_hop = [-1] * len(position)
        hops = [0] * len(position)
        for name in dist:
            if name != anchor:
                here, before = position[name], position[pred[name]]
                next_hop[here] = before
                hops[here] = hops[before] + 1
        return Solve(self._names, position, next_hop, hops)

    def restored_affects(self, link: Link,
                         stats: Dict[str, int]) -> Iterable[str]:
        """Anchors whose shortest distance strictly improves via ``link``:
        two Dijkstras from its endpoints, with the edge taken out, find every
        anchor where ``|d_u(a) - d_v(a)| > w(u,v)`` — the classical
        incremental-SPF improvement test."""
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
