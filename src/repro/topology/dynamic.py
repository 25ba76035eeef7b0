"""Routing tables that fill on demand and follow faults: one core, two solvers.

:class:`IncrementalRouting` owns every router's rows, on every topology,
under one rule: **a router holds a destination anchor's rows once it has
asked for them.**

* Destinations are grouped into **anchors**.  A single-homed host folds into
  its access router's anchor (its routes are the router's plus one access
  edge), so a 200-AS / 2000-host fleet has ~200 anchors, not ~2200
  destinations.
* :meth:`~IncrementalRouting.attach` (run by ``Topology.build_routes``,
  which writes no router row) hangs a miss hook off every router's
  :class:`~repro.router.routing.RoutingTable`.  A router's first lookup
  toward an anchor solves the anchor once (:meth:`~IncrementalRouting.solve`,
  remembered, answered in indexed form as a :class:`Solve`), writes the
  anchor's own access rows, and makes the router a *holder*: its rows for
  the anchor's group are written from the remembered solve, the lookup
  retries and the table's memo answers every later packet.  A router that
  takes an aggregate (a declared local prefix) also takes the rows of every
  other anchor with addresses inside it, so what it forwards never depends
  on which of them it asked for first.
* Only solved anchors are *tracked*, and only their holders are kept in
  line.  ``link_down`` re-solves exactly the tracked anchors whose tree
  traverses the edge, which the remembered solve says: one of its two
  endpoints has the other as its next hop.  This is *exact*: a routing tree
  that does not contain the removed edge is still a valid tree of the
  reduced graph.  ``link_up`` re-solves the tracked anchors the solver says
  the restored edge can affect (by default all of them).
* A re-solve visits the holders whose next hop or distance moved since the
  last solve (:meth:`~IncrementalRouting._recompute`), so forwarding flips
  atomically at the fault event and every other router keeps its lookup
  memo warm.  A router that asked while the anchor was unreachable stays a
  holder, so the re-solve that reconnects it writes its rows over the "no
  route" its table memoised.

A subclass supplies ``solve`` and, when a restored edge cannot affect every
tracked anchor, ``restored_affects``: :class:`DynamicRouting` here
(delay-weighted Dijkstra rooted at the anchor) and
:class:`repro.routing_policy.manager.PolicyRoutingManager` (valley-free).
The leaf fold and the router projection (:func:`fold_leaves`,
:func:`project_routers`) are what every solver computes routes on, so all
of them agree on what an anchor is.
"""

from __future__ import annotations

from typing import (Collection, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.net.address import IPAddress, Prefix
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
    """Writes a topology's router rows on demand and keeps them in line as
    links fail/recover."""

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
        # Destination -> anchor, for resolving lookup misses: every node
        # address exactly, and every declared local prefix as
        # ``(shift, {network >> shift: anchor})``, longest first.
        self._owner: Dict[int, str] = {}
        aggregates: Dict[int, Dict[int, str]] = {}
        for member, prefixes in self._prefixes.items():
            anchor = self.anchor_of(member)
            for prefix in prefixes:
                if prefix.length == 32:
                    self._owner[prefix.network.value] = anchor
                else:
                    shift = 32 - prefix.length
                    aggregates.setdefault(shift, {})[
                        prefix.network.value >> shift] = anchor
        self._aggregates = sorted(aggregates.items())
        #: Anchor -> the other anchors with a destination inside one of its
        #: aggregates: whoever takes the aggregate takes their rows too.
        self._nested: Dict[str, List[str]] = {}
        for member, prefixes in self._prefixes.items():
            inner = self.anchor_of(member)
            for prefix in prefixes:
                for shift, networks in self._aggregates:
                    if shift <= 32 - prefix.length:
                        continue  # not shorter than the prefix itself
                    outer = networks.get(prefix.network.value >> shift)
                    if outer is not None and outer != inner:
                        nested = self._nested.setdefault(outer, [])
                        if inner not in nested:
                            nested.append(inner)
        #: Anchor -> the last solve whose rows this core installed.
        self._solved: Dict[str, Solve] = {}
        #: Anchor -> the routers that asked for its rows, by name (solve
        #: positions move when a policy relationship is added).
        self._asked: Dict[str, Set[str]] = {}
        #: Anchor -> its remote rows, their keys and their extra hops.
        self._remote: Dict[str, Tuple[List[Tuple[Prefix, int]], List[int],
                                      List[int]]] = {}
        #: Rows written and anchors solved since construction (never reset).
        self.stats = {"routes_installed": 0, "anchors_materialized": 0}

    # ------------------------------------------------------------------
    # what a solver supplies
    # ------------------------------------------------------------------
    def solve(self, anchor: str) -> Solve:
        """Every node's next hop and hop count toward ``anchor`` over the
        live edge set."""
        raise NotImplementedError

    def restored_affects(self, link: Link,
                         stats: Dict[str, int]) -> Iterable[str]:
        """Tracked anchors that may route differently once ``link`` is back."""
        return self.tracked()

    def _remote_rows(self, anchor: str) -> List[Tuple[Prefix, int]]:
        """``(prefix, extra hops)`` of the rows a holder other than
        ``anchor`` has for its group, via its one next hop toward it; a
        solver may narrow them (the anchor always gets its access rows)."""
        return [(prefix, extra) for member, extra in self._groups[anchor]
                for prefix in self._prefixes[member]]

    # ------------------------------------------------------------------
    # asking
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Hook every router's routing-table miss onto :meth:`_on_miss`:
        one bound method shared by every table, which passes its own name
        (``RoutingTable.miss_asker``), so the hook knows who asks."""
        on_miss = self._on_miss
        for router in self._routers:
            router.routing.miss_asker = on_miss

    def _on_miss(self, router: str, destination: IPAddress) -> bool:
        """``router`` has no row for ``destination``: solve its anchor if
        nobody has yet, and make ``router`` a holder of the anchor's rows.
        True when the lookup is worth retrying — rows were written on
        ``router``, or the anchor was solved just now (when ``router`` *is*
        the anchor those are its access rows)."""
        anchor = self.anchor_for_address(destination)
        if anchor is None:
            return False
        fresh = anchor not in self._solved
        return self._ask(router, anchor) > 0 or fresh

    def _ask(self, router: str, anchor: str) -> int:
        """Make ``router`` a holder of ``anchor``'s rows and of every anchor
        nested in its aggregates; returns the rows written.  The anchor
        itself holds its access rows only."""
        solved = self.materialize(anchor)
        position = solved.index_of.get(router)
        if router == anchor or position is None:
            return 0
        asked = self._asked.setdefault(anchor, set())
        if router in asked:
            return 0
        # A holder even if the solve leaves it unreachable for now.
        asked.add(router)
        written = self._install(anchor, solved, (position,), new_counters())
        for inner in self._nested.get(anchor, ()):
            written += self._ask(router, inner)
        return written

    def anchor_for_address(self, destination: IPAddress) -> Optional[str]:
        """The destination anchor owning ``destination``: the node with that
        address, else the one declaring the longest local prefix around
        it; None when nobody does."""
        value = destination.value
        anchor = self._owner.get(value)
        if anchor is None:
            for shift, networks in self._aggregates:
                anchor = networks.get(value >> shift)
                if anchor is not None:
                    break
        return anchor

    def anchor_of(self, name: str) -> str:
        """The anchor a node folds into (itself unless a folded host)."""
        return self._fold_anchor.get(name, name)

    def materialize(self, anchor: str) -> Solve:
        """Solve ``anchor`` and write its own access rows (a remote router's
        are written when it asks); returns the remembered solve.

        Idempotent: an already-solved anchor is returned as-is; fault
        handling re-solves it through :meth:`apply` instead.
        """
        if anchor not in self._solved:
            if anchor not in self._groups:
                raise KeyError(f"unknown destination anchor {anchor!r}")
            self._recompute(anchor, new_counters())
            self.stats["anchors_materialized"] += 1
        return self._solved[anchor]

    def tracked(self) -> Collection[str]:
        """The anchors whose rows this core keeps current: the solved
        ones."""
        return self._solved

    @property
    def materialized_anchors(self) -> Tuple[str, ...]:
        return tuple(self._solved)

    @property
    def askers(self) -> Dict[str, Tuple[str, ...]]:
        """Anchor -> the routers that hold its rows because they asked."""
        return {anchor: tuple(sorted(asked))
                for anchor, asked in self._asked.items()}

    def holders(self, anchor: str, solved: Solve) -> Iterable[int]:
        """Positions in ``solved`` of the routers that asked for
        ``anchor``'s rows."""
        return map(solved.index_of.__getitem__, self._asked.get(anchor, ()))

    def _crosses(self, anchor: str, link: Link) -> bool:
        """Is ``link`` in tracked ``anchor``'s tree?  A folded host's access
        edge is in its anchor's only; any other edge iff one of its ends
        has the other as its next hop in the remembered solve."""
        fold = (self._fold_anchor.get(link.a.name)
                or self._fold_anchor.get(link.b.name))
        if fold is not None:
            return fold == anchor
        solved = self._solved[anchor]
        a = solved.index_of.get(link.a.name)
        b = solved.index_of.get(link.b.name)
        return (a is not None and b is not None
                and (solved.next_hop[a] == b or solved.next_hop[b] == a))

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
        next hop and distance toward the anchor, and only the core writes
        them, so they move together.  Against a remembered solve only the
        holders whose ``(next hop, hops)`` moved are visited at all; the
        first solve writes the anchor's own access rows."""
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
        elif before is None:
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
        it — one :meth:`RoutingTable.install_rows` per router over two
        shared records (the anchor's distance, and one hop further for its
        folded hosts), which leaves an unchanged row and the table's lookup
        memo alone and drops a replaced /32's own address only.  A router
        the solve leaves unreachable has the rows withdrawn so stale routes
        cannot forward into a black hole (withdrawing an absent row is a
        no-op).  Counts into ``stats``; returns the rows written."""
        names, next_hop, hops = solved.names, solved.next_hop, solved.hops
        nodes = self._topo.nodes
        links = self._topo.adjacency
        remote = self._remote.get(anchor)
        if remote is None:
            rows = self._remote_rows(anchor)
            remote = self._remote[anchor] = (
                rows, [prefix.key for prefix, _ in rows],
                [extra for _, extra in rows])
        rows, keys, extras = remote
        installed = 0
        for i in positions:
            name = names[i]
            table = nodes[name].routing
            if next_hop[i] < 0:
                for prefix, _ in rows:
                    if table.remove_route(prefix):
                        stats["routes_removed"] += 1
                continue
            link = links[name][names[next_hop[i]]]
            records = (table.next_hop(link, hops[i]),
                       table.next_hop(link, hops[i] + 1))
            installed += table.install_rows(keys,
                                            map(records.__getitem__, extras))
        stats["routes_installed"] += installed
        self.stats["routes_installed"] += installed
        return installed


class DynamicRouting(IncrementalRouting):
    """The flat solver: delay-weighted Dijkstra over the router graph,
    rooted at the anchor — a router's next hop is its predecessor in the
    anchor's shortest-path tree, which is the path a packet takes.

    A restored edge re-solves only the tracked anchors whose distance could
    strictly improve via it; ties keep the previously installed (still
    shortest) routes, preserving determinism.
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
        # group, if tracked (the improvement test below cannot see leaves
        # that were projected out of the graph).
        fold = self._fold_anchor.get(u) or self._fold_anchor.get(v)
        if fold is not None:
            return (fold,) if fold in self._solved else ()
        graph = self._reduced_graph()
        if v not in graph.get(u, ()):  # pragma: no cover - defensive
            return self.tracked()
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
        for anchor in self.tracked():
            da = du.get(anchor, inf)
            db = dv.get(anchor, inf)
            if da == inf and db == inf:
                continue  # the edge reconnects neither side to this anchor
            if abs(da - db) > weight + _EPS:
                improved.add(anchor)
        return improved
