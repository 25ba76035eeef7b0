"""The valley-free solver of the routing core.

At 10k ASes a full route install (every destination on every router) is
~10^8 table entries — far beyond what a scenario that touches a handful of
victim/attacker networks needs.  Every topology's router rows are written
by :class:`repro.topology.dynamic.IncrementalRouting` under one rule — **a
router holds a destination anchor's rows once it has asked for them** —
and anchor groups, the miss hook, the remembered solves, the holders, the
install loop and ``apply`` all live there.  This manager supplies what
policy routing changes:

* :meth:`solve` is one valley-free computation over the edges that are up
  now, instead of a Dijkstra;
* ``link_up`` re-solves every tracked anchor (the core's default): policy
  preference is not a distance metric, so the Dijkstra improvement test
  from the shortest-path world does not transfer — a restored edge can
  create a *preferred*, not just shorter, route anywhere; re-solving the
  materialised anchors is exact and, because they are lazy, cheap;
* remote rows skip a folded host's /32 inside its anchor's aggregate, and
  :meth:`router_path` reads paths off the remembered solve.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.net.address import Prefix
from repro.routing_policy.relationships import RelationshipMap
from repro.routing_policy.valley_free import PolicyRoutes, solve_valley_free
from repro.topology.adjacency import no_path
from repro.topology.dynamic import IncrementalRouting


class PolicyRoutingManager(IncrementalRouting):
    """Installs valley-free routes lazily, one destination anchor at a time."""

    def __init__(self, topo, relationships: RelationshipMap) -> None:
        super().__init__(topo)
        self.relationships = relationships

    def solve(self, anchor: str) -> PolicyRoutes:
        """One valley-free solve over the edges that are up now."""
        return solve_valley_free(self.relationships.index(), anchor,
                                 self._topo._down_edges)

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

    def router_path(self, source: str, destination_anchor: str) -> List[str]:
        """Router names along the installed policy path (materialises the
        destination anchor on demand).  Raises ``networkx.NetworkXNoPath``
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
