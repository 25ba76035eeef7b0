"""The name-keyed heap implementation of valley-free route selection.

This is the solver ``repro.routing_policy.valley_free`` shipped before it
moved onto ``RelationshipMap.index()``: name-keyed dicts, one ``edge_up``
call per edge, a heap for the unit-weight stage 3.  It stays here as the
oracle the indexed solver is checked against (``test_properties.py``), as
networkx is for the native Dijkstra.  It reads the map only through its
public name-sorted queries, never through the index.
"""

import heapq
from typing import Callable, Dict, Optional

from repro.routing_policy import (
    CUSTOMER,
    PEER,
    PROVIDER,
    PolicyRoute,
    RelationshipMap,
)


def heap_valley_free_routes(
    destination: str,
    rels: RelationshipMap,
    *,
    edge_up: Optional[Callable[[str, str], bool]] = None,
) -> Dict[str, PolicyRoute]:
    """``{router_name: PolicyRoute}`` toward ``destination``; ``edge_up(a,
    b)`` filters failed links (default: every declared edge is usable)."""
    if edge_up is None:
        def edge_up(a: str, b: str) -> bool:
            return True

    # Stage 1 — customer routes: BFS from the destination up provider
    # edges.  dist[u] is the hop count of u's best customer route.
    dist: Dict[str, int] = {destination: 0}
    frontier = [destination]
    while frontier:
        next_frontier = []
        for node in frontier:
            for provider in rels.providers_of(node):
                if provider not in dist and edge_up(node, provider):
                    dist[provider] = dist[node] + 1
                    next_frontier.append(provider)
        frontier = next_frontier

    routes: Dict[str, PolicyRoute] = {}
    for node, hops in dist.items():
        if node == destination:
            continue
        # The next hop is the name-smallest customer one BFS level closer.
        best = None
        for customer in rels.customers_of(node):
            if dist.get(customer, -1) == hops - 1 and edge_up(node, customer):
                best = customer
                break  # customers_of is name-sorted: first match is smallest
        if best is not None:
            routes[node] = PolicyRoute(CUSTOMER, hops, best)

    # Stage 2 — peer routes: one peer hop into the customer-routed region.
    for node in rels.nodes():
        if node in dist:
            continue
        best = None
        for peer in rels.peers_of(node):
            peer_dist = dist.get(peer)
            if peer_dist is None or not edge_up(node, peer):
                continue
            candidate = (peer_dist + 1, peer)
            if best is None or candidate < best:
                best = candidate
        if best is not None:
            routes[node] = PolicyRoute(PEER, best[0], best[1])

    # Stage 3 — provider routes: unit-weight multi-source Dijkstra seeded
    # with every routed node, relaxing downhill (provider→customer) edges.
    # Heap entries carry (hops, customer, provider) so equal-hop candidates
    # resolve to the name-smallest provider.
    settled: Dict[str, PolicyRoute] = {}
    heap = []
    for node in sorted(routes):
        heapq.heappush(heap, (routes[node].hops, node, None))
    if destination in rels.nodes():
        heapq.heappush(heap, (0, destination, None))
    while heap:
        hops, node, via = heapq.heappop(heap)
        if via is not None:
            if node in routes or node in settled:
                continue
            settled[node] = PolicyRoute(PROVIDER, hops, via)
        for customer in rels.customers_of(node):
            if customer in routes or customer in settled or customer == destination:
                continue
            if edge_up(node, customer):
                heapq.heappush(heap, (hops + 1, customer, node))
    routes.update(settled)
    return routes
