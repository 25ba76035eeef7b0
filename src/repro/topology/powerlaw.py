"""Power-law AS-level topologies for the scalability experiment (E10).

Section III-C argues that AITF "pushes filtering of undesired traffic to the
leaves of the Internet, where filtering capacity follows Internet growth":
as the Internet grows, the filtering work lands on the attackers' own
(leaf) providers, each of which only has to handle its own clients, while
core networks stay out of the data path of filtering almost entirely.

To measure that we need Internet-like graphs of varying size.  Preferential
attachment (Barabási–Albert) gives the power-law degree distribution real AS
graphs exhibit — a few highly connected "core" ASes and many stub leaves —
which is exactly the structure the scaling argument depends on.

Each AS becomes one border router plus ``hosts_per_leaf`` end-hosts on stub
(degree-1 or low-degree) ASes.  Routes are delay-shortest paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.router.nodes import BorderRouter, Host
from repro.sim.engine import Simulator
from repro.sim.randomness import SeededRandom
from repro.topology.base import (
    ACCESS_BANDWIDTH,
    ACCESS_DELAY,
    BACKBONE_BANDWIDTH,
    REGIONAL_DELAY,
    Topology,
)


@dataclass
class PowerLawInternet:
    """An AS-level internet with hosts on its leaf networks."""

    topology: Topology
    routers: List[BorderRouter] = field(default_factory=list)
    leaf_routers: List[BorderRouter] = field(default_factory=list)
    core_routers: List[BorderRouter] = field(default_factory=list)
    hosts_by_leaf: Dict[str, List[Host]] = field(default_factory=dict)

    @property
    def sim(self) -> Simulator:
        """The shared simulator."""
        return self.topology.sim

    def all_nodes(self):
        """Every node, for :func:`repro.core.deploy_aitf`."""
        return self.topology.all_nodes()

    @property
    def hosts(self) -> List[Host]:
        """Every end-host in the internet."""
        return [h for hosts in self.hosts_by_leaf.values() for h in hosts]

    def leaf_of(self, host: Host) -> Optional[BorderRouter]:
        """The leaf AS router serving ``host``."""
        for router_name, hosts in self.hosts_by_leaf.items():
            if host in hosts:
                return self.topology.node(router_name)  # type: ignore[return-value]
        return None


def barabasi_albert_edges(n: int, m: int, seed: int) -> List[Tuple[int, int]]:
    """Edges of a Barabási–Albert graph on nodes ``0..n-1``: a star on
    ``m + 1`` nodes, then each new node attaches to ``m`` distinct existing
    nodes drawn with probability proportional to their degree.

    The draw sequence over ``random.Random(seed)`` and the edge order (by
    lower endpoint, then by when the edge was added) are those of
    ``list(nx.barabasi_albert_graph(n, m, seed).edges)`` — held equal in
    ``tests/test_native_graph.py`` — so a seed names the same fleet
    whatever networkx is installed, or none.
    """
    if m < 1 or m >= n:
        raise ValueError(
            f"Barabási–Albert network must have m >= 1 and m < n, m = {m}, n = {n}")
    rng = random.Random(seed)
    higher: List[List[int]] = [[] for _ in range(n)]  # node -> later neighbours
    higher[0] = list(range(1, m + 1))
    repeated = [0] * m + higher[0]  # each node once per incident edge
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in targets:
            higher[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return [(a, b) for a in range(n) for b in higher[a]]


def build_powerlaw_internet(
    sim: Simulator = None,
    *,
    autonomous_systems: int = 50,
    attachment_edges: int = 2,
    hosts_per_leaf: int = 2,
    leaf_degree_threshold: int = 2,
    filter_capacity: int = 1000,
    seed: int = 7,
) -> PowerLawInternet:
    """Build a Barabási–Albert AS graph and populate its leaves with hosts.

    Parameters
    ----------
    autonomous_systems:
        Number of ASes (one border router each).
    attachment_edges:
        The BA attachment parameter m; 2 gives realistic multi-homing.
    hosts_per_leaf:
        End-hosts attached to each leaf (low-degree) AS.
    leaf_degree_threshold:
        ASes with degree <= threshold count as leaves (stub networks).
    """
    if autonomous_systems < 3:
        raise ValueError("need at least 3 autonomous systems")
    as_edges = barabasi_albert_edges(autonomous_systems, attachment_edges, seed)
    topo = Topology(sim)
    rng = SeededRandom(seed, name="powerlaw")

    routers: List[BorderRouter] = []
    for as_index in range(autonomous_systems):
        name = f"as{as_index}"
        router = topo.add_border_router(name, name, filter_capacity=filter_capacity)
        routers.append(router)

    for a, b in as_edges:
        topo.connect(f"as{a}", f"as{b}",
                     bandwidth_bps=BACKBONE_BANDWIDTH,
                     delay=rng.uniform(0.5, 1.5) * REGIONAL_DELAY)

    leaf_routers: List[BorderRouter] = []
    core_routers: List[BorderRouter] = []
    hosts_by_leaf: Dict[str, List[Host]] = {}
    for router in routers:
        if len(topo.adjacency[router.name]) <= leaf_degree_threshold:
            leaf_routers.append(router)  # type: ignore[arg-type]
        else:
            core_routers.append(router)  # type: ignore[arg-type]

    for router in leaf_routers:
        prefix = topo.allocate_network_prefix(24)
        router.add_local_prefix(prefix)
        hosts: List[Host] = []
        for host_index in range(hosts_per_leaf):
            host = topo.add_host(f"{router.name}_h{host_index}", router.network,
                                 prefix=prefix)
            access = topo.connect(host, router, bandwidth_bps=ACCESS_BANDWIDTH,
                                  delay=ACCESS_DELAY)
            router.ingress.allow(access, prefix)
            hosts.append(host)
        hosts_by_leaf[router.name] = hosts

    topo.build_routes()
    return PowerLawInternet(
        topology=topo,
        routers=routers,
        leaf_routers=leaf_routers,
        core_routers=core_routers,
        hosts_by_leaf=hosts_by_leaf,
    )
