"""Seeded CAIDA-style tiered AS hierarchies with policy routing.

The paper's partial-deployment question — how AITF effectiveness varies
with *where in the Internet hierarchy* filtering gateways sit — needs a
topology that actually has a hierarchy: a tier-1 clique at the top,
tier-2 transit providers buying from it (plus IX peering among
themselves), and stub leaves at the edge.  :func:`build_hierarchy_internet`
generates such graphs from a seed, annotates every inter-AS link with its
business relationship, and routes them with the valley-free computation
from :mod:`repro.routing_policy` instead of flat Dijkstra.

Scale notes (10k+ ASes):

* Routing tables are **lazily materialised per destination anchor** via
  :class:`~repro.routing_policy.manager.PolicyRoutingManager` — building
  the topology installs only host default routes; the first packet toward
  a destination triggers one valley-free solve for that anchor.
* Hosts exist only on a sampled subset of stubs (``host_stubs``), so the
  traffic side stays small enough for the train engine while the routing
  side exercises the full graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.net.address import Prefix
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.routing_policy.manager import PolicyRoutingManager
from repro.routing_policy.relationships import RelationshipMap
from repro.sim.engine import Simulator
from repro.sim.randomness import SeededRandom
from repro.topology.base import (
    ACCESS_BANDWIDTH,
    ACCESS_DELAY,
    BACKBONE_BANDWIDTH,
    BACKBONE_DELAY,
    REGIONAL_DELAY,
    Topology,
)
from repro.topology.adjacency import no_path
from repro.topology.dynamic import edge_key

#: Tier labels used in ``tier_of`` and deployment-locus selection.
TIER1, TIER2, STUB = 1, 2, 3


class PolicyTopology(Topology):
    """A topology routed by Gao–Rexford policy instead of shortest paths.

    Inter-AS links are declared through :meth:`connect_customer` /
    :meth:`connect_peer` so every edge carries a relationship annotation;
    :meth:`build_routes` installs only host defaults and arms the lazy
    policy-routing manager; path queries and fault rerouting go through
    the manager so they respect valley-free semantics.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 address_pool: Union[str, Prefix] = "10.0.0.0/8") -> None:
        super().__init__(sim, address_pool)
        self.relationships = RelationshipMap()

    # ------------------------------------------------------------------
    # relationship-annotated linking
    # ------------------------------------------------------------------
    def connect_customer(self, customer: Union[str, NetworkNode],
                         provider: Union[str, NetworkNode], **link_kwargs):
        """Link ``customer`` to ``provider`` as a transit (c2p) edge."""
        link = self.connect(customer, provider, **link_kwargs)
        self.relationships.add_customer(self._resolve(customer).name,
                                        self._resolve(provider).name)
        return link

    def connect_peer(self, a: Union[str, NetworkNode],
                     b: Union[str, NetworkNode], **link_kwargs):
        """Link ``a`` and ``b`` as a settlement-free peering (p2p) edge."""
        link = self.connect(a, b, **link_kwargs)
        self.relationships.add_peer(self._resolve(a).name,
                                    self._resolve(b).name)
        return link

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Install host defaults and arm lazy valley-free materialisation.

        Unlike the base class, **no** router tables are populated here —
        at 10k ASes an eager install is the bottleneck the lazy shards
        exist to avoid.  Router tables fill per destination anchor on
        first use (routing-table miss → one valley-free solve).
        """
        for node in self.nodes.values():
            if isinstance(node, Host):
                self._install_host_default(node)
        self.policy.attach()

    def ensure_dynamic_routing(self) -> PolicyRoutingManager:
        """The (lazily created) policy-routing manager: the valley-free
        solver of the incremental-reroute core, so faults drive it as is."""
        if self._dynamic is None:
            self._dynamic = PolicyRoutingManager(self, self.relationships)
        return self._dynamic

    policy = property(ensure_dynamic_routing)

    def path_between(self, a: Union[str, NetworkNode],
                     b: Union[str, NetworkNode]) -> List[str]:
        """Node names along the *installed valley-free* path from a to b.

        Overrides the base (delay-shortest Dijkstra) query so attack-path
        computation, escalation targets and occupancy sampling all see the
        path traffic actually takes under policy routing.  Raises
        ``networkx.NetworkXNoPath`` when policy (or a fault) leaves no
        route.
        """
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        policy = self.policy
        anchor_a = policy.anchor_of(node_a.name)
        anchor_b = policy.anchor_of(node_b.name)
        for host, anchor in ((node_a, anchor_a), (node_b, anchor_b)):
            if (host.name != anchor
                    and edge_key(host.name, anchor) in self._down_edges):
                raise no_path(f"access link of {host.name} is down")
        if anchor_a == anchor_b:
            path = [anchor_a]
        else:
            path = policy.router_path(anchor_a, anchor_b)
        if node_a.name != anchor_a:
            path.insert(0, node_a.name)
        if node_b.name != anchor_b:
            path.append(node_b.name)
        return path


@dataclass
class HierarchyInternet:
    """A tiered AS internet with policy routes and hosts on sampled stubs."""

    topology: PolicyTopology
    tier1: List[BorderRouter] = field(default_factory=list)
    tier2: List[BorderRouter] = field(default_factory=list)
    stubs: List[BorderRouter] = field(default_factory=list)
    tier_of: Dict[str, int] = field(default_factory=dict)
    host_stub_routers: List[BorderRouter] = field(default_factory=list)
    hosts_by_stub: Dict[str, List[Host]] = field(default_factory=dict)

    @property
    def sim(self) -> Simulator:
        """The shared simulator."""
        return self.topology.sim

    @property
    def relationships(self) -> RelationshipMap:
        return self.topology.relationships

    @property
    def policy(self) -> PolicyRoutingManager:
        return self.topology.policy

    @property
    def hosts(self) -> List[Host]:
        """Every end-host, host-stub order then host index."""
        return [h for hosts in self.hosts_by_stub.values() for h in hosts]

    def all_nodes(self):
        """Every node, for :func:`repro.core.deploy_aitf`."""
        return self.topology.all_nodes()

    def stub_of(self, host: Host) -> Optional[BorderRouter]:
        """The stub AS router serving ``host``."""
        for router_name, hosts in self.hosts_by_stub.items():
            if host in hosts:
                return self.topology.node(router_name)  # type: ignore[return-value]
        return None

    def tier_counts(self) -> Dict[str, int]:
        """AS counts by tier, for summaries."""
        return {"tier1": len(self.tier1), "tier2": len(self.tier2),
                "stub": len(self.stubs)}


def build_hierarchy_internet(
    sim: Simulator = None,
    *,
    autonomous_systems: int = 1000,
    tier1: Optional[int] = None,
    tier2: Optional[int] = None,
    host_stubs: int = 8,
    hosts_per_stub: int = 2,
    t2_peering_fraction: float = 0.25,
    stub_multihoming: float = 0.3,
    t2_multihoming: float = 0.7,
    stub_uplink_bandwidth: float = ACCESS_BANDWIDTH,
    filter_capacity: int = 1000,
    seed: int = 7,
) -> HierarchyInternet:
    """Build a seeded tiered AS hierarchy with valley-free routing.

    Structure (CAIDA-style):

    * ``tier1`` ASes form a full peering clique (default ~cube root of the
      AS count, capped at 20 — about right for real transit-free cliques);
    * ``tier2`` transit ASes (default one tenth of the AS count) each buy
      transit from 1–2 tier-1s, plus seeded IX peering edges among
      themselves (``t2_peering_fraction`` of the tier-2 count);
    * the remaining ASes are stubs, each a customer of 1–2 tier-2s.

    Hosts are attached only to ``host_stubs`` sampled stubs (each with a
    /24 and ingress filtering), keeping the traffic plane small while the
    routing plane covers the full graph.
    """
    if autonomous_systems < 12:
        raise ValueError("need at least 12 autonomous systems")
    n_tier1 = tier1 if tier1 is not None else max(4, min(20, round(autonomous_systems ** (1 / 3))))
    n_tier2 = tier2 if tier2 is not None else max(2 * n_tier1, autonomous_systems // 10)
    n_stubs = autonomous_systems - n_tier1 - n_tier2
    if n_stubs < 1:
        raise ValueError(
            f"tier sizes (tier1={n_tier1}, tier2={n_tier2}) leave no stubs "
            f"out of {autonomous_systems} ASes")
    if host_stubs < 2:
        raise ValueError("need at least 2 host stubs (victim + senders)")
    if host_stubs > n_stubs:
        raise ValueError(f"host_stubs={host_stubs} exceeds stub count {n_stubs}")

    topo = PolicyTopology(sim)
    rng = SeededRandom(seed, name="hierarchy")

    def pad(index: int, count: int) -> str:
        return str(index).zfill(len(str(max(count - 1, 1))))

    t1_names = [f"t1_{pad(i, n_tier1)}" for i in range(n_tier1)]
    t2_names = [f"t2_{pad(i, n_tier2)}" for i in range(n_tier2)]
    stub_names = [f"st_{pad(i, n_stubs)}" for i in range(n_stubs)]

    tier1_routers: List[BorderRouter] = []
    for name in t1_names:
        tier1_routers.append(
            topo.add_border_router(name, name, filter_capacity=filter_capacity))
    for i, a in enumerate(t1_names):
        for b in t1_names[i + 1:]:
            topo.connect_peer(a, b, bandwidth_bps=BACKBONE_BANDWIDTH,
                              delay=rng.uniform(0.5, 1.5) * BACKBONE_DELAY)

    tier2_routers: List[BorderRouter] = []
    for name in t2_names:
        router = topo.add_border_router(name, name,
                                        filter_capacity=filter_capacity)
        tier2_routers.append(router)
        providers = rng.sample(t1_names, 2 if rng.chance(t2_multihoming) else 1)
        for provider in providers:
            topo.connect_customer(name, provider,
                                  bandwidth_bps=BACKBONE_BANDWIDTH,
                                  delay=rng.uniform(0.5, 1.5) * REGIONAL_DELAY)

    # IX peering among tier-2s: seeded pairs, skipping already-related ones.
    peering_target = int(math.floor(t2_peering_fraction * n_tier2))
    attempts = 0
    added = 0
    while added < peering_target and attempts < peering_target * 10:
        attempts += 1
        a, b = rng.sample(t2_names, 2)
        if topo.relationships.relationship(a, b) is not None:
            continue
        topo.connect_peer(a, b, bandwidth_bps=BACKBONE_BANDWIDTH,
                          delay=rng.uniform(0.5, 1.5) * REGIONAL_DELAY)
        added += 1

    stub_routers: List[BorderRouter] = []
    for name in stub_names:
        router = topo.add_border_router(name, name,
                                        filter_capacity=filter_capacity)
        stub_routers.append(router)
        providers = rng.sample(t2_names, 2 if rng.chance(stub_multihoming) else 1)
        for provider in providers:
            # The stub's uplink is the paper's "tail circuit": narrowing it
            # (vs. the backbone) is what makes the deployment locus matter —
            # only filters upstream of it relieve victim-side congestion.
            topo.connect_customer(name, provider,
                                  bandwidth_bps=stub_uplink_bandwidth,
                                  delay=rng.uniform(0.5, 1.5) * REGIONAL_DELAY)

    # Hosts on a seeded sample of stubs (sorted for stable role ordering).
    chosen = sorted(rng.sample(range(n_stubs), host_stubs))
    host_stub_routers: List[BorderRouter] = []
    hosts_by_stub: Dict[str, List[Host]] = {}
    for index in chosen:
        router = stub_routers[index]
        host_stub_routers.append(router)
        prefix = topo.allocate_network_prefix(24)
        router.add_local_prefix(prefix)
        hosts: List[Host] = []
        for host_index in range(hosts_per_stub):
            host = topo.add_host(f"{router.name}_h{host_index}", router.network,
                                 prefix=prefix)
            access = topo.connect(host, router, bandwidth_bps=ACCESS_BANDWIDTH,
                                  delay=ACCESS_DELAY)
            router.ingress.allow(access, prefix)
            hosts.append(host)
        hosts_by_stub[router.name] = hosts

    topo.build_routes()

    tier_of: Dict[str, int] = {}
    tier_of.update((name, TIER1) for name in t1_names)
    tier_of.update((name, TIER2) for name in t2_names)
    tier_of.update((name, STUB) for name in stub_names)

    return HierarchyInternet(
        topology=topo,
        tier1=tier1_routers,
        tier2=tier2_routers,
        stubs=stub_routers,
        tier_of=tier_of,
        host_stub_routers=host_stub_routers,
        hosts_by_stub=hosts_by_stub,
    )
