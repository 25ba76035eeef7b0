"""Topology registry: build any registered network from a spec.

Each builder normalises its topology into a :class:`TopologyHandle` so the
runner, backends and workloads can reason about *roles* (victim, victim's
gateway, attacker candidates, legitimate senders) without knowing which
concrete network they are on.  The raw builder result stays reachable via
``handle.raw`` for anything topology-specific.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.experiments.registry import TOPOLOGIES
from repro.router.nodes import BorderRouter, Host
from repro.sim.engine import Simulator
from repro.topology.base import Topology
from repro.topology.figure1 import build_figure1
from repro.topology.tree import build_dumbbell, build_provider_tree


@dataclass
class TopologyHandle:
    """A built network with its experiment roles assigned."""

    kind: str
    topology: Topology
    victim: Host
    victim_gateway: BorderRouter
    attackers: Tuple[Host, ...] = ()
    legit_senders: Tuple[Host, ...] = ()
    raw: Any = None

    @property
    def sim(self) -> Simulator:
        """The simulator every node of this topology runs on."""
        return self.topology.sim

    def all_nodes(self):
        """Every node, for handing to a defense backend's deploy step."""
        return self.topology.all_nodes()

    def attack_path(self, attacker: Host) -> Tuple[str, ...]:
        """Border routers from ``attacker`` to the victim (attacker's gateway first)."""
        return self.topology.border_router_path(attacker, self.victim)

    def attacker_gateway(self, attacker: Host) -> Optional[BorderRouter]:
        """The border router closest to ``attacker`` on the path to the victim."""
        path = self.attack_path(attacker)
        if not path:
            return None
        node = self.topology.node(path[0])
        return node if isinstance(node, BorderRouter) else None

    def upstream_of_victim_gateway(self, attacker: Host) -> Optional[BorderRouter]:
        """The router one hop upstream of the victim's gateway on the attack path."""
        path = self.attack_path(attacker)
        if len(path) < 2:
            return None
        node = self.topology.node(path[-2])
        return node if isinstance(node, BorderRouter) else None


def _lazy(module: str, name: str) -> Callable[[], Callable[..., Any]]:
    """A thunk for builder ``name`` of ``module``, imported on first call:
    a spec pays for a topology module only when it names that topology."""
    return lambda: getattr(importlib.import_module(module), name)


_failover = _lazy("repro.topology.failover", "build_failover")
_powerlaw = _lazy("repro.topology.powerlaw", "build_powerlaw_internet")
_hierarchy = _lazy("repro.topology.hierarchy", "build_hierarchy_internet")


@TOPOLOGIES.register("figure1", declared_by=lambda: build_figure1)
def _build_figure1_handle(**params: Any) -> TopologyHandle:
    """The paper's Figure-1 topology (:func:`repro.topology.figure1.build_figure1`)."""
    figure1 = build_figure1(**params)
    topo = figure1.topology
    extra_good = [h for h in topo.hosts()
                  if h.network == "G_net" and h is not figure1.g_host]
    extra_bad = [h for h in topo.hosts()
                 if h.network == "B_net" and h is not figure1.b_host]
    return TopologyHandle(
        kind="figure1",
        topology=topo,
        victim=figure1.g_host,
        victim_gateway=figure1.g_gw1,
        attackers=(figure1.b_host, *extra_bad),
        legit_senders=tuple(extra_good),
        raw=figure1,
    )


@TOPOLOGIES.register("dumbbell", declared_by=lambda: build_dumbbell)
def _build_dumbbell_handle(**params: Any) -> TopologyHandle:
    """Many sources, one victim, two gateways.  When there is more than one
    source the last one is reserved as a legitimate sender so goodput can be
    measured alongside the attack; with a single source it attacks."""
    dumbbell = build_dumbbell(**params)
    sources = tuple(dumbbell.sources)
    if len(sources) > 1:
        attackers, legit = sources[:-1], sources[-1:]
    else:
        attackers, legit = sources, ()
    return TopologyHandle(
        kind="dumbbell",
        topology=dumbbell.topology,
        victim=dumbbell.victim,
        victim_gateway=dumbbell.victim_gateway,
        attackers=attackers,
        legit_senders=legit,
        raw=dumbbell,
    )


@TOPOLOGIES.register("tree", declared_by=lambda: build_provider_tree)
def _build_tree_handle(**params: Any) -> TopologyHandle:
    """A provider tree: the victim is the first host of the first client
    network, attacked from the remote host across the core; the second
    client's hosts (when present) send legitimate traffic."""
    tree = build_provider_tree(**params)
    victim_router = tree.client_routers[0]
    victim_hosts = tree.hosts_of(victim_router)
    if not victim_hosts:
        raise ValueError("tree topology needs hosts_per_client >= 1")
    legit: Tuple[Host, ...] = ()
    if len(tree.client_routers) > 1:
        legit = tuple(tree.hosts_of(tree.client_routers[1]))
    return TopologyHandle(
        kind="tree",
        topology=tree.topology,
        victim=victim_hosts[0],
        victim_gateway=victim_router,
        attackers=(tree.remote_host,),
        legit_senders=legit,
        raw=tree,
    )


@TOPOLOGIES.register("failover", declared_by=_failover)
def _build_failover_handle(**params: Any) -> TopologyHandle:
    """The dual-transit fault-injection topology
    (:func:`repro.topology.failover.build_failover`): the attack path runs
    ``B_gw -> T1 -> G_gw`` until a fault removes the primary transit, at
    which point traffic fails over to ``T2``."""
    failover = _failover()(**params)
    return TopologyHandle(
        kind="failover",
        topology=failover.topology,
        victim=failover.g_host,
        victim_gateway=failover.g_gw,
        attackers=(failover.b_host,),
        legit_senders=(failover.l_host,),
        raw=failover,
    )


@TOPOLOGIES.register("powerlaw", declared_by=_powerlaw)
def _build_powerlaw_handle(**params: Any) -> TopologyHandle:
    """A Barabási–Albert AS internet.  Host roles are assigned
    deterministically: the first leaf host is the victim, the second is a
    legitimate sender, and everything else is an attacker candidate."""
    internet = _powerlaw()(**params)
    hosts = internet.hosts
    if len(hosts) < 2:
        raise ValueError("powerlaw topology needs at least two end-hosts")
    victim = hosts[0]
    victim_gateway = internet.leaf_of(victim)
    if victim_gateway is None:
        raise ValueError("powerlaw victim has no leaf router")
    return TopologyHandle(
        kind="powerlaw",
        topology=internet.topology,
        victim=victim,
        victim_gateway=victim_gateway,
        attackers=tuple(hosts[2:]),
        legit_senders=(hosts[1],),
        raw=internet,
    )


@TOPOLOGIES.register("hierarchy", declared_by=_hierarchy)
def _build_hierarchy_handle(**params: Any) -> TopologyHandle:
    """A CAIDA-style tiered AS hierarchy with valley-free policy routing
    (see :func:`repro.topology.hierarchy.build_hierarchy_internet`).
    Host roles: the first host stub holds the victim, the second's hosts
    send legitimate traffic, every remaining host is an attacker
    candidate.  Routing tables materialise lazily per destination, so
    10k+ AS graphs are practical."""
    internet = _hierarchy()(**params)
    stubs = internet.host_stub_routers
    victim_hosts = internet.hosts_by_stub[stubs[0].name]
    legit = tuple(internet.hosts_by_stub[stubs[1].name])
    attackers = tuple(
        host for router in stubs[2:]
        for host in internet.hosts_by_stub[router.name])
    return TopologyHandle(
        kind="hierarchy",
        topology=internet.topology,
        victim=victim_hosts[0],
        victim_gateway=stubs[0],
        attackers=attackers,
        legit_senders=legit,
        raw=internet,
    )


def build_topology(kind: str, params: Mapping[str, Any]) -> TopologyHandle:
    """Resolve ``kind`` in the registry and build the handle."""
    return TOPOLOGIES.get(kind)(**params)
