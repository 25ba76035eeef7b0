"""Per-destination valley-free (Gao–Rexford) route computation.

Instead of shortest paths, interdomain routes follow business policy:

* **customer routes win** — a route learned from a customer (the
  destination sits in the next hop's customer cone) is preferred over any
  peer- or provider-learned route, regardless of length;
* **peer routes beat provider routes** — one peer hop into a neighbor
  that itself has a customer route;
* **export rules** — customer routes are exported to everyone; peer- and
  provider-learned routes are exported to customers only.  Composing
  selection with export yields the classic valley-free path shape
  ``uphill* peer? downhill*``: traffic never goes provider→customer→
  provider (a "valley") and never crosses two peering links.

The computation is **per destination** (one anchor at a time) so 10k-AS
routing tables can be materialised lazily — a destination nobody sends to
costs nothing.  Three stages, each at most O(V+E):

1. *customer routes*: BFS from the destination along customer→provider
   edges — a node is reached iff the destination is in its customer cone;
2. *peer routes*: one peer hop out of the customer-routed region;
3. *provider routes*: every routed node exports downhill along
   provider→customer edges, one hop count at a time.

**Pinned preference tie-break** (regression-tested): routes compare by the
tuple ``(class_rank, hops, next_hop_name)`` — class 0 customer / 1 peer /
2 provider, then fewest AS hops, then the lexicographically smallest next
hop — so the result does not depend on edge insertion order or the worker
process.  The solver runs on :meth:`RelationshipMap.index`, where the
smaller index *is* the smaller name: each hop count's nodes export in index
order, and the first route to reach a node is its best.
``tests/valley_free_oracle.py`` keeps the name-keyed heap implementation
this replaced, as the oracle.
"""

from __future__ import annotations

from typing import (Callable, Collection, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

from repro.routing_policy.relationships import RelationshipIndex, RelationshipMap

#: Route-class ranks in preference order (smaller wins).
CUSTOMER, PEER, PROVIDER = 0, 1, 2


class PolicyRoute(NamedTuple):
    """A selected route toward the current destination anchor."""

    rank: int       # CUSTOMER / PEER / PROVIDER
    hops: int       # AS-path length in hops
    next_hop: str   # direct-neighbor router name


class PolicyRoutes(Mapping[str, PolicyRoute]):
    """One destination's routes as flat lists over the relationship index,
    read by name as ``{router_name: PolicyRoute}`` (rendered per read).

    ``next_hop[i]`` is the index of ``names[i]``'s next hop: ``-1`` for the
    destination, and — with ``rank[i]`` and ``hops[i]`` — for a node with no
    policy-compliant route (the destination is outside its customer cone
    and no peer/provider export reaches it; possible after link failures).
    """

    def __init__(self, index: RelationshipIndex) -> None:
        self.names, self.index_of = index.names, index.index_of
        self.rank = [-1] * len(self.names)
        self.hops = [-1] * len(self.names)
        self.next_hop = [-1] * len(self.names)

    def __getitem__(self, name: str) -> PolicyRoute:
        i = self.index_of[name]
        if self.next_hop[i] < 0:
            raise KeyError(name)
        return PolicyRoute(self.rank[i], self.hops[i],
                           self.names[self.next_hop[i]])

    def __iter__(self) -> Iterator[str]:
        return (name for name, hop in zip(self.names, self.next_hop)
                if hop >= 0)

    def __len__(self) -> int:
        return len(self.names) - self.next_hop.count(-1)


def solve_valley_free(index: RelationshipIndex, destination: str,
                      failed: Collection[Tuple[str, str]] = (),
                      ) -> PolicyRoutes:
    """Best valley-free route from every AS toward ``destination``;
    ``failed`` names the unusable edges, either end first (pairs that are
    no edge of the index — a downed access link — change nothing)."""
    routes = PolicyRoutes(index)
    rank, hops, next_hop = routes.rank, routes.hops, routes.next_hop
    start = index.index_of.get(destination)
    if start is None:
        return routes  # no relationships: nobody has a route to it
    providers, customers, peers = index.providers, index.customers, index.peers
    if failed:
        # The ends of a failed edge get their neighbour tuples re-cut
        # without it; every other node's are the index's own.
        providers, customers, peers = map(list, (providers, customers, peers))
        for a, b in failed:
            if a in index.index_of and b in index.index_of:
                a, b = index.index_of[a], index.index_of[b]
                for neighbours in (providers, customers, peers):
                    neighbours[a] = tuple(n for n in neighbours[a] if n != b)
                    neighbours[b] = tuple(n for n in neighbours[b] if n != a)

    def export(level: List[int], neighbours, route_class: int,
               into: List[int]) -> None:
        """Offer the routes of ``level``'s nodes to their still-unrouted
        ``neighbours`` — in index order, so that the first offer a node
        gets is from the smallest next hop."""
        for node in sorted(level):
            for other in neighbours[node]:
                if rank[other] < 0:
                    rank[other] = route_class
                    hops[other] = hops[node] + 1
                    next_hop[other] = node
                    into.append(other)

    # levels[h]: the nodes whose route is h hops long.
    # Stage 1 — customer routes: BFS up provider edges.
    rank[start], hops[start] = CUSTOMER, 0
    levels = [[start]]
    while levels[-1]:
        levels.append([])
        export(levels[-2], providers, CUSTOMER, levels[-1])
    # Stage 2 — peer routes: one peer hop out of the customer-routed
    # region, nearest first; they join the levels once all are found.
    peer_routed: List[int] = []
    for level in levels:
        export(level, peers, PEER, peer_routed)
    for node in peer_routed:
        levels[hops[node]].append(node)  # at most the empty last level
    # Stage 3 — provider routes: every routed node exports downhill.
    for distance, level in enumerate(levels):  # grows while it is walked
        if level:
            if level is levels[-1]:
                levels.append([])
            export(level, customers, PROVIDER, levels[distance + 1])
    return routes


def valley_free_routes(
    destination: str,
    rels: RelationshipMap,
    *,
    edge_up: Optional[Callable[[str, str], bool]] = None,
) -> PolicyRoutes:
    """:func:`solve_valley_free` by name: ``{router_name: PolicyRoute}`` for
    every AS with a policy-compliant route toward ``destination``.

    ``edge_up(a, b)`` filters failed links — asked per declared edge, not
    per direction, so it must not depend on the order of its arguments; by
    default every declared edge is usable.
    """
    failed = () if edge_up is None else [
        (name, other) for name in rels.nodes()
        for other in rels.providers_of(name) + rels.peers_of(name)
        if not edge_up(name, other)]
    return solve_valley_free(rels.index(), destination, failed)
