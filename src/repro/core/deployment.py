"""Deploying AITF onto a topology.

A scenario builds nodes and links first (see :mod:`repro.topology`), then
calls :func:`deploy_aitf` to attach a protocol agent to every end-host and
border router, sharing one configuration, one event log and one node
directory.  A border router's agent is built on its first use.  The
returned :class:`AITFDeployment` is the handle experiments use to reach any
agent, flip cooperation flags, and read the event log.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Optional

from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import ProtocolEventLog
from repro.core.gateway_agent import GatewayAgent
from repro.core.host_agent import HostAgent
from repro.net.link import Link
from repro.net.packet import Packet
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.sim.randomness import SeededRandom


class GatewayAgents(Mapping[str, GatewayAgent]):
    """Deployed border-router name -> its agent, built on first use.

    A 5,000-AS hierarchy deploys 5,000 gateways and a run reaches a few
    dozen of them, so a deployed router holds only the deployment's one
    handler, which builds the agent of the router a control packet is
    addressed to when the first such packet arrives, and this
    map holds the agent's fork of the deployment stream, fixed at deploy
    time in node order (so handshake nonces do not depend on which agents
    a run builds, or when).  Length, iteration and membership cover every
    deployed gateway; reading an item builds its agent.
    """

    def __init__(self, deployment: "AITFDeployment") -> None:
        self._deployment = deployment
        #: Deployed router -> its fork index in the deployment stream.
        self._forks: Dict[str, int] = {}
        self._built: Dict[str, GatewayAgent] = {}

    def __getitem__(self, name: str) -> GatewayAgent:
        agent = self._built.get(name)
        if agent is None:
            index = self._forks[name]
            agent = self._built[name] = self._deployment._build_gateway(
                name, index)
        return agent

    def __contains__(self, name: object) -> bool:
        return name in self._forks

    def __len__(self) -> int:
        return len(self._forks)

    def __iter__(self) -> Iterator[str]:
        return iter(self._forks)

    def built(self) -> List[GatewayAgent]:
        """The agents built so far, in build order (builds nothing)."""
        return list(self._built.values())


@dataclass
class AITFDeployment:
    """Every agent created for one scenario, plus the shared plumbing."""

    config: AITFConfig
    directory: NodeDirectory
    event_log: ProtocolEventLog
    rng: SeededRandom = field(
        default_factory=lambda: SeededRandom(0, name="deployment"))
    #: What a gateway agent starts with when it is built.
    cooperative: bool = True
    disconnection_enabled: bool = True
    host_agents: Dict[str, HostAgent] = field(default_factory=dict)
    gateway_agents: GatewayAgents = field(init=False)

    def __post_init__(self) -> None:
        self.gateway_agents = GatewayAgents(self)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def host_agent(self, name: str) -> HostAgent:
        """The agent attached to the named host (KeyError when absent)."""
        return self.host_agents[name]

    def gateway_agent(self, name: str) -> GatewayAgent:
        """The agent attached to the named border router (KeyError when
        absent; built here if it was not yet)."""
        return self.gateway_agents[name]

    def all_agents(self) -> List[object]:
        """Every agent, hosts first (builds every gateway agent)."""
        return list(self.host_agents.values()) + list(self.gateway_agents.values())

    # ------------------------------------------------------------------
    # scenario knobs
    # ------------------------------------------------------------------
    def set_cooperative(self, name: str, cooperative: bool) -> None:
        """Flip a node's willingness to honour AITF requests."""
        if name in self.gateway_agents:
            self.gateway_agents[name].cooperative = cooperative
        elif name in self.host_agents:
            self.host_agents[name].cooperative = cooperative
        else:
            raise KeyError(f"no AITF agent named {name}")

    def set_disconnection_enabled(self, enabled: bool) -> None:
        """Enable/disable the disconnection endgame on every gateway."""
        self.disconnection_enabled = enabled
        for agent in self.gateway_agents.built():
            agent.disconnection_enabled = enabled

    # ------------------------------------------------------------------
    # gateway agents, built on first use
    # ------------------------------------------------------------------
    def _deploy_gateways(self, routers: List[BorderRouter]) -> None:
        """Make ``routers`` gateways: each takes its fork index, in order,
        and the filter capacity now; its agent comes with its first use."""
        first = self.rng.reserve_forks(len(routers))
        capacity = self.config.victim_gateway_filter_capacity
        forks = self.gateway_agents._forks
        wake = self._wake_gateway
        for index, router in enumerate(routers, first):
            forks[router.name] = index
            if capacity is not None:
                router.filter_table.capacity = capacity
            router.control_handler = wake

    def _wake_gateway(self, packet: Packet, link: Optional[Link]) -> None:
        """Every dormant gateway's control handler (one bound method,
        shared): the gateway is the router owning the packet's
        destination; build its agent, then hand over."""
        router = self.directory.node_owning(packet.dst)
        self.gateway_agents[router.name]._handle_control(packet, link)

    def _build_gateway(self, name: str, index: int) -> GatewayAgent:
        router = self.directory.get(name)
        return GatewayAgent(
            router, self.config, self.event_log, self.directory,
            rng=self.rng.forked(name, index), cooperative=self.cooperative,
            disconnection_enabled=self.disconnection_enabled,
        )


def deploy_aitf(
    nodes: Iterable[NetworkNode],
    config: Optional[AITFConfig] = None,
    *,
    event_log: Optional[ProtocolEventLog] = None,
    directory: Optional[NodeDirectory] = None,
    rng: Optional[SeededRandom] = None,
    cooperative: bool = True,
    gateway_names: Optional[Container[str]] = None,
) -> AITFDeployment:
    """Attach AITF agents to every host and border router in ``nodes``.

    Gateway agents are built on first use (see :class:`GatewayAgents`);
    the filter capacity ``config.victim_gateway_filter_capacity`` applies
    to every deployed router from here on.

    Parameters
    ----------
    nodes:
        The nodes of a built topology (hosts and border routers; anything
        else is registered in the directory but gets no agent).
    config:
        Protocol configuration shared by every agent.
    cooperative:
        Initial cooperation flag for every agent; individual nodes can be
        flipped afterwards via :meth:`AITFDeployment.set_cooperative`.
    gateway_names:
        When given, only the named border routers get a gateway agent
        (partial deployment); every other router stays a plain forwarder.
        Hosts always get host agents.
    """
    deployment = AITFDeployment(
        config=config or AITFConfig(),
        directory=directory or NodeDirectory(),
        event_log=event_log or ProtocolEventLog(),
        rng=rng or SeededRandom(0, name="deployment"),
        cooperative=cooperative,
    )
    node_list = list(nodes)
    deployment.directory.register_all(node_list)
    deployment._deploy_gateways([
        node for node in node_list if isinstance(node, BorderRouter)
        and (gateway_names is None or node.name in gateway_names)])
    for node in node_list:
        if isinstance(node, Host):
            deployment.host_agents[node.name] = HostAgent(
                node, deployment.config, deployment.event_log,
                deployment.directory, cooperative=cooperative,
            )
    return deployment
