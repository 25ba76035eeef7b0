"""Lazy, per-anchor materialisation of valley-free routing tables.

At 10k ASes a full route install (every destination on every router) is
~10^8 table entries — far beyond what a scenario that touches a handful of
victim/attacker networks needs.  This manager is the valley-free solver of
:class:`repro.topology.dynamic.IncrementalRouting` — anchor groups, the
remembered solves, the install loop and ``apply`` all live there — and
installs routes **one destination anchor at a time**, on demand:

* :meth:`attach` hangs an ``miss_handler`` off every router's
  :class:`~repro.router.routing.RoutingTable`.  The first packet toward an
  unmaterialised destination triggers :meth:`materialize` for that
  destination's anchor — one valley-free computation, routes installed on
  every router — then the lookup retries and the per-table memo makes
  every subsequent packet a single dict hit.
* Only materialised anchors are *tracked*: ``link_down`` re-solves the
  materialised anchors whose routes crossed the edge; ``link_up``
  re-solves every materialised anchor (policy preference is not a
  distance metric, so the Dijkstra improvement test from the shortest-path
  world does not transfer — a restored edge can create a *preferred*, not
  just shorter, route anywhere; re-solving the materialised shards is
  exact and, because shards are lazy, cheap).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.net.address import IPAddress, Prefix
from repro.routing_policy.relationships import RelationshipMap
from repro.routing_policy.valley_free import PolicyRoutes, solve_valley_free
from repro.topology.adjacency import no_path
from repro.topology.dynamic import IncrementalRouting, new_counters


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
        self.stats["anchors_materialized"] = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Hook every router's routing-table miss onto lazy materialisation."""
        for router in self._routers:
            router.routing.miss_handler = self._on_miss

    def _on_miss(self, destination: IPAddress) -> bool:
        anchor = self.anchor_for_address(destination)
        if anchor is None or anchor in self._solved:
            return False
        self.materialize(anchor)
        return True

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

    def materialize(self, anchor: str) -> PolicyRoutes:
        """Compute and install valley-free routes toward ``anchor``; returns
        them as the installed solve reads, ``{router: PolicyRoute}``.

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
