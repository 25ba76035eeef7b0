"""AS-level topology partitioning for sharded execution.

The unit of partitioning is the border router with its attached end-hosts
folded in (an access link must never be a cut: its delay is tiny and a host
separated from its gateway would make every packet a cross-shard message).
Stub routers fold into their providers the same way — on tiered (hierarchy)
topologies every highest-tier router joins its lowest-named provider, so
partitions follow tier boundaries; on flat topologies single-homed routers
join their only neighbour.

The folded unit graph is then split by deterministic seeded region growing:

* seed 0 is the unit holding the victim's gateway (the victim-side region
  always exists, so victim-anchored metrics live on one shard);
* the remaining seeds are chosen by farthest-point sampling over hop
  distance, ties broken by name;
* regions grow greedily — the lightest region claims the smallest-named
  unassigned unit on its frontier (or anywhere, if its frontier is empty) —
  until every unit is owned.

Everything iterates in sorted name order, so the partition is a pure
function of the topology and the shard count.  The cut links (links whose
endpoints land in different shards) define the conservative lookahead
window: their minimum delay is how far one shard can run ahead of the
others without missing a cross-shard arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.net.link import Link
from repro.router.nodes import BorderRouter, Host


@dataclass
class Partition:
    """A deterministic assignment of every node to one shard."""

    shards: int
    #: Node name -> shard index, for every node of the topology.
    owner: Dict[str, int]
    #: Links whose endpoints live in different shards, in topology order.
    cut_links: List[Link]
    #: Minimum delay over the cut links — the synchronization window.
    #: None when no link is cut (disconnected regions): a single window
    #: covering the whole run is then sufficient.
    lookahead: Optional[float]
    #: Unit-root names the regions grew from (diagnostics, tests).
    seeds: Tuple[str, ...]

    def owned_by(self, shard: int) -> Set[str]:
        """Names of every node the given shard owns."""
        return {name for name, owner in self.owner.items() if owner == shard}


def partition_topology(handle, shards: int) -> Partition:
    """Partition ``handle``'s topology into ``shards`` node groups."""
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    topology = handle.topology
    router_names = sorted(n.name for n in topology.border_routers())
    if not router_names:
        raise ValueError("cannot shard a topology with no border routers")

    root = _fold_units(handle, router_names)
    units = sorted({_find(root, name) for name in router_names})
    if len(units) < shards:
        raise ValueError(
            f"topology folds into {len(units)} partitionable unit(s); "
            f"engine.shards = {shards} cannot be satisfied — reduce the "
            "shard count or use a larger topology")

    weights, host_router = _unit_weights(topology, root)
    neighbors = _unit_graph(topology, root)
    victim_unit = _find(root, handle.victim_gateway.name)
    seeds = _pick_seeds(units, neighbors, victim_unit, shards)
    assignment = _grow_regions(units, neighbors, weights, seeds)

    owner: Dict[str, int] = {}
    for name in router_names:
        owner[name] = assignment[_find(root, name)]
    for host in topology.hosts():
        router = host_router.get(host.name)
        owner[host.name] = owner[router] if router is not None else assignment[victim_unit]

    cut_links = [link for link in topology.links
                 if owner[link.a.name] != owner[link.b.name]]
    lookahead: Optional[float] = None
    if cut_links:
        lookahead = min(link.delay for link in cut_links)
        if lookahead <= 0.0:
            raise ValueError(
                "cannot shard: a cut link has zero propagation delay, so "
                "there is no conservative lookahead window")
    return Partition(shards=shards, owner=owner, cut_links=cut_links,
                     lookahead=lookahead, seeds=seeds)


# ----------------------------------------------------------------------
# unit folding
# ----------------------------------------------------------------------
def _find(root: Dict[str, str], name: str) -> str:
    while root[name] != name:
        name = root[name]
    return name


def _router_neighbors(adjacency, name: str, router_names) -> List[str]:
    return sorted(n for n in adjacency[name] if n in router_names)


def _fold_units(handle, router_names: List[str]) -> Dict[str, str]:
    """Merge stubs into providers; returns the union-find parent map."""
    adjacency = handle.topology.adjacency
    names = set(router_names)
    root = {name: name for name in router_names}
    tier_of = getattr(handle.raw, "tier_of", None)
    if tier_of:
        # Tiered topology: every highest-tier (stub) router folds into its
        # lowest-named provider, so regions respect tier boundaries.
        stub_tier = max(tier_of.get(name, 0) for name in router_names)
        for name in router_names:
            if tier_of.get(name) != stub_tier:
                continue
            nbrs = _router_neighbors(adjacency, name, names)
            providers = [n for n in nbrs
                         if tier_of.get(n, stub_tier) < stub_tier]
            target = providers[0] if providers else (nbrs[0] if nbrs else None)
            if target is not None and _find(root, target) != name:
                root[name] = target
        return root
    # Flat topology: single-homed routers join their only neighbour (the
    # guard keeps two mutually single-homed routers from forming a cycle).
    for name in router_names:
        nbrs = _router_neighbors(adjacency, name, names)
        if len(nbrs) == 1 and _find(root, nbrs[0]) != name:
            root[name] = nbrs[0]
    return root


def _unit_weights(topology, root) -> Tuple[Dict[str, int], Dict[str, str]]:
    """Unit weight (routers + hosts) and each host's adjacent router."""
    weights: Dict[str, int] = {}
    host_router: Dict[str, str] = {}
    for name in sorted(topology.nodes):
        node = topology.nodes[name]
        if isinstance(node, BorderRouter):
            unit = _find(root, name)
            weights[unit] = weights.get(unit, 0) + 1
        elif isinstance(node, Host) and node.links:
            other = node.links[0].other_end(node)
            host_router[name] = other.name
            if other.name in root:
                unit = _find(root, other.name)
                weights[unit] = weights.get(unit, 0) + 1
    return weights, host_router


def _unit_graph(topology, root) -> Dict[str, Set[str]]:
    neighbors: Dict[str, Set[str]] = {}
    for link in topology.links:
        a, b = link.a.name, link.b.name
        if a not in root or b not in root:
            continue
        ua, ub = _find(root, a), _find(root, b)
        if ua == ub:
            continue
        neighbors.setdefault(ua, set()).add(ub)
        neighbors.setdefault(ub, set()).add(ua)
    return neighbors


# ----------------------------------------------------------------------
# seeding and growth
# ----------------------------------------------------------------------
def _bfs_distances(start: str, neighbors) -> Dict[str, int]:
    distances = {start: 0}
    frontier = [start]
    while frontier:
        nxt: List[str] = []
        for unit in frontier:
            for neighbor in sorted(neighbors.get(unit, ())):
                if neighbor not in distances:
                    distances[neighbor] = distances[unit] + 1
                    nxt.append(neighbor)
        frontier = nxt
    return distances


def _pick_seeds(units, neighbors, victim_unit: str,
                shards: int) -> Tuple[str, ...]:
    """Farthest-point sampling from the victim's unit, ties by name."""
    seeds = [victim_unit]
    infinity = len(units) + 1
    best: Dict[str, int] = _bfs_distances(victim_unit, neighbors)
    while len(seeds) < shards:
        candidate = None
        candidate_distance = -1
        for unit in units:
            if unit in seeds:
                continue
            distance = best.get(unit, infinity)
            if distance > candidate_distance:
                candidate, candidate_distance = unit, distance
        assert candidate is not None  # len(units) >= shards was validated
        seeds.append(candidate)
        for unit, distance in _bfs_distances(candidate, neighbors).items():
            if distance < best.get(unit, infinity):
                best[unit] = distance
    return tuple(seeds)


def _grow_regions(units, neighbors, weights, seeds) -> Dict[str, int]:
    assignment: Dict[str, int] = {}
    region_weight = [0] * len(seeds)
    frontiers: List[Set[str]] = [set() for _ in seeds]
    unassigned = set(units)

    def claim(unit: str, shard: int) -> None:
        assignment[unit] = shard
        unassigned.discard(unit)
        region_weight[shard] += weights.get(unit, 1)
        frontiers[shard] |= neighbors.get(unit, set())

    for shard, seed in enumerate(seeds):
        claim(seed, shard)
    while unassigned:
        shard = min(range(len(seeds)),
                    key=lambda s: (region_weight[s], s))
        candidates = sorted(frontiers[shard] & unassigned)
        if candidates:
            claim(candidates[0], shard)
        else:
            # This region's frontier is exhausted (disconnected graph or
            # fully surrounded): take the smallest-named leftover so every
            # unit still gets an owner.
            claim(min(unassigned), shard)
    return assignment
