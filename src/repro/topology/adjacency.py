"""The topology's own graph: insertion-ordered adjacency and one Dijkstra.

A :class:`~repro.topology.base.Topology` keeps its shape as
``{node name: {neighbour name: Link}}`` — plain dicts, whose insertion order
*is* the tie-break among equal-cost paths, so every function here spells
out the order it leaves behind.  Routes are computed on this structure by
:func:`shortest_path_tree`; networkx is not imported by a run.

networkx is what the fast path is checked against: :func:`nx_view` renders
an adjacency as an ``nx.Graph`` with the same node order, the same per-node
neighbour order and ``link`` / ``delay`` edge attributes, for analysis code,
``bench/gen_workloads.py`` and the test oracles
(``tests/test_native_graph.py`` holds the two equal on random graphs with
equal-cost alternatives and a down/up history).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Container, Dict, Optional, Tuple

from repro.net.link import Link

#: ``{node: {neighbour: link}}``; both directions hold the same Link.
Adjacency = Dict[str, Dict[str, Link]]


def add_edge(adjacency: Adjacency, link: Link) -> None:
    """(Re-)insert ``link``; a new or restored edge lands *last* in both
    endpoints' neighbour order, as ``nx.Graph.add_edge`` leaves it."""
    a, b = link.a.name, link.b.name
    adjacency[a][b] = link
    adjacency[b][a] = link


def remove_edge(adjacency: Adjacency, link: Link) -> None:
    """Drop ``link`` from both endpoints' neighbours."""
    a, b = link.a.name, link.b.name
    del adjacency[a][b]
    del adjacency[b][a]


def copy_without(adjacency: Adjacency, dropped: Container[str] = ()) -> Adjacency:
    """A copy of ``adjacency`` minus the ``dropped`` nodes, in the order
    ``nx.Graph.copy()`` + ``remove_nodes_from`` gives: nodes as they were,
    each edge inserted at both ends when its first endpoint is visited (so
    a neighbour order is *re-normalised*, not cloned)."""
    copied: Adjacency = {name: {} for name in adjacency if name not in dropped}
    for a, neighbors in adjacency.items():
        if a in dropped:
            continue
        for b, link in neighbors.items():
            if b not in dropped:
                copied[a][b] = link
                copied[b][a] = link
    return copied


def shortest_path_tree(adjacency: Adjacency, source: str,
                       target: Optional[str] = None
                       ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Delay-weighted Dijkstra from ``source`` (stopping once ``target``,
    if given, is settled).

    Returns ``(dist, pred)``: distance per reached node in the order nodes
    were settled (``source`` first), and each other node's predecessor on
    its shortest path.  Relaxation order, the strict-improvement rule and
    the push-counter tie-break are networkx's ``_dijkstra_multisource``, so
    among equal-cost paths this picks the one networkx picks.
    """
    dist: Dict[str, float] = {}
    pred: Dict[str, str] = {}
    seen = {source: 0}
    pushed = 0
    fringe = [(0, 0, source)]
    while fringe:
        reached, _, node = heappop(fringe)
        if node in dist:
            continue
        dist[node] = reached
        if node == target:
            break
        for neighbor, link in adjacency[node].items():
            if neighbor in dist:
                continue
            candidate = reached + link.delay
            if neighbor not in seen or candidate < seen[neighbor]:
                seen[neighbor] = candidate
                pushed += 1
                heappush(fringe, (candidate, pushed, neighbor))
                pred[neighbor] = node
    return dist, pred


def first_hops(dist: Dict[str, float], pred: Dict[str, str], source: str
               ) -> Dict[str, Tuple[str, int]]:
    """``{node: (first hop out of source, hop count)}`` for every other
    node of a :func:`shortest_path_tree` — what a forwarding row needs of
    a path, without building the path."""
    hops: Dict[str, Tuple[str, int]] = {}
    for node in dist:  # settling order: a predecessor is resolved first
        if node != source:
            before = pred[node]
            if before == source:
                hops[node] = (node, 1)
            else:
                first, count = hops[before]
                hops[node] = (first, count + 1)
    return hops


def no_path(message: str) -> Exception:
    """The error for a disconnected pair.  Callers have always caught
    ``networkx.NetworkXNoPath``, so that is still the type — imported here,
    on the error path, never by a run that succeeds."""
    import networkx as nx

    return nx.NetworkXNoPath(message)


def nx_view(adjacency: Adjacency):
    """``adjacency`` as an ``nx.Graph`` (networkx imported on first use).

    Written through ``_adj`` because no sequence of ``add_edge`` calls is
    guaranteed to reproduce an arbitrary per-node neighbour order, and the
    order is the point.  The result is detached: mutating it does not
    change the topology.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    rows = graph._adj
    for a, neighbors in adjacency.items():
        for b, link in neighbors.items():
            # one attribute dict per edge, shared by both directions
            rows[a][b] = rows[b].get(a) or {"link": link, "delay": link.delay}
    return graph
