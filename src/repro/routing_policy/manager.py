"""Lazy materialisation of valley-free routing tables: per destination
anchor, and per router that asks.

At 10k ASes a full route install (every destination on every router) is
~10^8 table entries — far beyond what a scenario that touches a handful of
victim/attacker networks needs, and even a handful of anchors' rows on
every router (2 x anchors x N) is thousands of times what the few dozen
routers that ever forward toward them hold.  This manager is the
valley-free solver of
:class:`repro.topology.dynamic.IncrementalRouting` — anchor groups, the
remembered solves, the install loop and ``apply`` all live there — and
follows one rule: **a router holds a destination anchor's rows once it has
asked for them.**

* :meth:`attach` hangs a ``miss_handler`` off every router's
  :class:`~repro.router.routing.RoutingTable`.  The first packet toward an
  unmaterialised destination triggers :meth:`materialize` for that
  destination's anchor — one valley-free computation, remembered, and the
  anchor's own access rows.  The router that missed becomes a *holder*:
  its rows are written from the remembered solve, the lookup retries and
  the per-table memo makes every subsequent packet a single dict hit.  A
  later first packet at another router costs that router's rows only.
* Only materialised anchors are *tracked*, and only their holders are
  kept in line: ``link_down`` re-solves the materialised anchors whose
  solve crossed the edge; ``link_up`` re-solves every materialised anchor
  (policy preference is not a distance metric, so the Dijkstra improvement
  test from the shortest-path world does not transfer — a restored edge
  can create a *preferred*, not just shorter, route anywhere; re-solving
  the materialised shards is exact and, because shards are lazy, cheap).
  A router that asked while the anchor was unreachable stays a holder, so
  the re-solve that reconnects it writes its rows over the "no route" its
  table memoised.
"""

from __future__ import annotations

from functools import partial
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.net.address import IPAddress, Prefix
from repro.routing_policy.relationships import RelationshipMap
from repro.routing_policy.valley_free import PolicyRoutes, solve_valley_free
from repro.topology.adjacency import no_path
from repro.topology.dynamic import IncrementalRouting, Solve, new_counters


class PolicyRoutingManager(IncrementalRouting):
    """Installs valley-free routes lazily, one destination anchor at a time."""

    def __init__(self, topo, relationships: RelationshipMap) -> None:
        super().__init__(topo)
        self.relationships = relationships
        # Address -> anchor, for resolving lookup misses.  Covers every
        # node address exactly; destinations inside a declared local prefix
        # (e.g. an unused address in a stub's /24) resolve by containment.
        self._addr_anchor: Dict[int, str] = {}
        for name, node in topo.nodes.items():
            anchor = self.anchor_of(name)
            for address in node.addresses:
                self._addr_anchor[address.value] = anchor
        self._local_prefix_anchors: List[Tuple[Prefix, str]] = [
            (prefix, anchor) for anchor in self._groups
            for prefix in getattr(topo.nodes[anchor], "local_prefixes", ())]
        #: Anchor -> the routers that asked for its rows, by name (solve
        #: positions move when a relationship is added); kept across
        #: ``forget()`` so the next solve re-aligns them.
        self._asked: Dict[str, Set[str]] = {}
        self.stats["anchors_materialized"] = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Hook every router's routing-table miss onto lazy materialisation;
        the hook is bound to the router's name, so it knows who asks."""
        for router in self._routers:
            router.routing.miss_handler = partial(self._on_miss, router.name)

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
        solved = self.materialize(anchor)
        position = solved.index_of.get(router)
        asked = self._asked.setdefault(anchor, set())
        if position is None or router in asked:
            return fresh
        # A holder even if the solve leaves it unreachable for now.
        asked.add(router)
        written = self._install(anchor, solved, (position,), new_counters())
        return fresh or written > 0

    def anchor_for_address(self, destination: IPAddress) -> Optional[str]:
        """The destination anchor owning ``destination``, if any."""
        anchor = self._addr_anchor.get(destination.value)
        if anchor is not None:
            return anchor
        for prefix, name in self._local_prefix_anchors:
            if prefix.contains(destination):
                return name
        return None

    # ------------------------------------------------------------------
    # the solver
    # ------------------------------------------------------------------
    def solve(self, anchor: str) -> PolicyRoutes:
        """One valley-free solve over the edges that are up now."""
        return solve_valley_free(self.relationships.index(), anchor,
                                 self._topo._down_edges)

    def tracked(self) -> Collection[str]:
        """The materialised anchors: the ones the core remembers a solve
        of."""
        return self._solved

    def holders(self, anchor: str, solved: Solve) -> Iterable[int]:
        """The routers that asked for ``anchor``'s rows."""
        return map(solved.index_of.__getitem__, self._asked.get(anchor, ()))

    def _remote_rows(self, anchor: str) -> List[Tuple[Prefix, int]]:
        """Remote installs skip a folded host's /32 inside one of the
        anchor's declared local prefixes: longest-prefix-match on the
        anchor's aggregate reaches it anyway, and at 10k routers the
        per-host rows dominate shard size.  (The anchor itself still gets
        exact /32 routes over the access links.)"""
        aggregates = getattr(self._topo.nodes[anchor], "local_prefixes", ())
        return [(prefix, extra)
                for prefix, extra in super()._remote_rows(anchor)
                if not (extra and any(aggregate.contains(prefix.network)
                                      for aggregate in aggregates))]

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    @property
    def materialized_anchors(self) -> Tuple[str, ...]:
        return tuple(self._solved)

    @property
    def askers(self) -> Dict[str, Tuple[str, ...]]:
        """Anchor -> the routers that hold its rows because they asked."""
        return {anchor: tuple(sorted(asked))
                for anchor, asked in self._asked.items()}

    def materialize(self, anchor: str) -> PolicyRoutes:
        """Compute valley-free routes toward ``anchor`` and write its own
        access rows (a remote router's are written when it asks); returns
        the routes as the remembered solve reads, ``{router: PolicyRoute}``.

        Idempotent: an already-materialised anchor is returned as-is;
        fault handling re-solves it through the core's ``apply`` instead.
        """
        if anchor not in self._solved:
            if anchor not in self._groups:
                raise KeyError(f"unknown destination anchor {anchor!r}")
            self._recompute(anchor, new_counters())
            self.stats["anchors_materialized"] += 1
        return self._solved[anchor]

    # ------------------------------------------------------------------
    # path queries
    # ------------------------------------------------------------------
    def router_path(self, source: str, destination_anchor: str) -> List[str]:
        """Router names along the installed policy path (materialises the
        destination shard on demand).  Raises ``networkx.NetworkXNoPath``
        when policy or faults leave no route."""
        routes = self.materialize(destination_anchor)
        path = [source]
        current = source
        limit = len(self._routers) + 1
        while current != destination_anchor:
            route = routes.get(current)
            if route is None or len(path) > limit:
                raise no_path(
                    f"no valley-free route from {source} to {destination_anchor}")
            current = route.next_hop
            path.append(current)
        return path
