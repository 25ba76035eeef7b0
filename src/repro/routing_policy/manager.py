"""Lazy, per-anchor materialisation of valley-free routing tables.

At 10k ASes a full route install (every destination on every router) is
~10^8 table entries — far beyond what a scenario that touches a handful of
victim/attacker networks needs.  This manager is the valley-free solver of
:class:`repro.topology.dynamic.IncrementalRouting` — anchor groups, the
edge-usage index, the install loop and ``apply`` all live there — and
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

from repro.net.address import IPAddress
from repro.routing_policy.relationships import RelationshipMap
from repro.routing_policy.valley_free import PolicyRoute, valley_free_routes
from repro.topology.adjacency import no_path
from repro.topology.dynamic import IncrementalRouting, edge_key, new_counters


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
        self._local_prefix_anchors: List[Tuple[object, str]] = []
        # Remote installs skip folded hosts whose /32 falls inside one of
        # the anchor's declared local prefixes: longest-prefix-match on the
        # anchor's aggregate reaches them anyway, and at 10k routers the
        # per-host rows dominate shard size.  The anchor itself still gets
        # exact /32 routes over the access links.
        self._remote_members = {}
        for anchor, group in self._groups.items():
            locals_ = list(getattr(topo.nodes[anchor], "local_prefixes", ()))
            self._local_prefix_anchors.extend((p, anchor) for p in locals_)
            self._remote_members[anchor] = [
                (member, extra) for member, extra in group
                if not (extra and any(p.contains(topo.nodes[member].address)
                                      for p in locals_))]
        # Materialised shards: anchor -> {router: PolicyRoute}.
        self._materialized: Dict[str, Dict[str, PolicyRoute]] = {}
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
        if anchor is None or anchor in self._materialized:
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
    def solve(self, anchor: str) -> Dict[str, Tuple[str, int]]:
        """One valley-free solve; recording the shard is what makes
        ``anchor`` tracked."""
        routes = valley_free_routes(anchor, self.relationships,
                                    edge_up=self._edge_up)
        self._materialized[anchor] = routes
        return {name: (route.next_hop, route.hops)
                for name, route in routes.items()}

    def _edge_up(self, a: str, b: str) -> bool:
        down = self._topo._down_edges
        return not down or edge_key(a, b) not in down

    def tracked(self) -> Collection[str]:
        return self._materialized

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    @property
    def materialized_anchors(self) -> Tuple[str, ...]:
        return tuple(self._materialized)

    def materialize(self, anchor: str) -> Dict[str, PolicyRoute]:
        """Compute and install valley-free routes toward ``anchor``.

        Idempotent: an already-materialised anchor is returned as-is;
        fault handling re-solves it through the core's ``apply`` instead.
        """
        existing = self._materialized.get(anchor)
        if existing is not None:
            return existing
        if anchor not in self._groups:
            raise KeyError(f"unknown destination anchor {anchor!r}")
        self._recompute(anchor, new_counters())
        self.stats["anchors_materialized"] += 1
        return self._materialized[anchor]

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
