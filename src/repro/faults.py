"""Fault injection: scheduled link failures/recoveries and router crashes.

The :class:`FaultInjector` turns a spec's declarative fault schedule
(:class:`repro.experiments.spec.FaultSpec`) into simulator events.  Each
event flips link state through :meth:`Topology.set_link_state` — which
drops/strands in-flight traffic deterministically at the link layer — and
then delta-updates the installed routes through the topology's incremental
rerouting (:mod:`repro.topology.dynamic`), so a 200-AS fleet pays per-event
work proportional to the routes that actually changed, not a full
``build_routes()``.

A ``router_crash`` downs every link of the router *and* wipes its volatile
defense state: the wire-speed filter table and — when an AITF deployment is
attached — the gateway agent's DRAM shadow cache.  ``router_recover``
brings the links back; filters are *not* resurrected (that is the point of
the failover experiments: the defense has to re-detect and re-install).

Determinism: window-based fault times are drawn, in spec order, from an
independent stream seeded by ``stable_seed("faults", spec.seed)``, so the
schedule is identical across reruns, worker counts and engines, and adding
faults never perturbs workload randomness.  Every event appends one plain
:attr:`timeline` dict (no wall-clock values) that collectors report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.router.nodes import BorderRouter, NetworkNode
from repro.sim.randomness import SeededRandom, stable_seed
from repro.topology.base import Topology
from repro.topology.dynamic import edge_key, new_counters


@dataclass
class _ResolvedFault:
    """One fault event with its time drawn and its target bound."""

    kind: str
    time: float
    link: Optional[Link] = None
    node: Optional[NetworkNode] = None
    #: Endpoint names for link events (stable display/edge key).
    endpoints: Optional[Tuple[str, str]] = None

    @property
    def target(self) -> str:
        if self.endpoints is not None:
            return "-".join(self.endpoints)
        return self.node.name if self.node is not None else "?"


@dataclass
class FaultInjector:
    """Executes a spec's fault schedule against a live topology."""

    topology: Topology
    events: List[_ResolvedFault]
    deployment: Any = None
    #: One entry per fired event, in firing order; collectors report these.
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Callbacks invoked with each timeline record as it is appended — the
    #: observability plane's ``fault``/``routing`` channels attach here.
    #: Empty (and never iterated per-packet) on unobserved runs.
    observers: List[Callable[[Dict[str, Any]], None]] = field(default_factory=list)

    @classmethod
    def from_spec(cls, spec, topology: Topology, *, deployment: Any = None
                  ) -> Optional["FaultInjector"]:
        """Resolve a spec's fault schedule, or None when it has no faults.

        Times are drawn (for windowed events) in spec order from a stream
        independent of every workload stream; targets are resolved eagerly
        so a typo'd node or link name fails at wiring, not mid-run.
        """
        if not spec.faults:
            return None
        rng = SeededRandom(stable_seed("faults", spec.seed), name="faults")
        events: List[_ResolvedFault] = []
        for fault in spec.faults:
            when = fault.time if fault.time is not None \
                else rng.uniform(fault.window[0], fault.window[1])
            if fault.link is not None:
                a, b = fault.link
                # link_between raises KeyError for unknown node names;
                # unknown endpoint and unconnected pair fail the same way.
                link = (topology.link_between(a, b)
                        if a in topology.nodes and b in topology.nodes
                        else None)
                if link is None:
                    raise ValueError(f"fault targets link {a!r}-{b!r}, "
                                     f"but no such link exists")
                events.append(_ResolvedFault(kind=fault.kind, time=when,
                                             link=link, endpoints=(a, b)))
            else:
                node = topology.nodes.get(fault.node)
                if node is None:
                    raise ValueError(f"fault targets node {fault.node!r}, "
                                     f"but no such node exists")
                if not isinstance(node, BorderRouter):
                    raise ValueError(f"fault {fault.kind!r} targets "
                                     f"{fault.node!r}, which is not a border "
                                     f"router")
                events.append(_ResolvedFault(kind=fault.kind, time=when,
                                             node=node))
        injector = cls(topology=topology, events=events, deployment=deployment)
        # Build the incremental-routing helper now (anchor groups and their
        # rows; no table is read, no Dijkstra run), so that the first fault
        # event pays for its re-solves only.
        topology.ensure_dynamic_routing()
        return injector

    def __post_init__(self) -> None:
        #: Administratively-downed edge keys and crashed router names; a
        #: link is effectively up only when neither applies.
        self._admin_down: set = set()
        self._crashed: set = set()
        #: Every link an event of this schedule ever took down: the only
        #: ones that can have dropped a packet for being down.
        self.downed_links: set = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every fault event.  Called once, before workloads start,
        so a fault at time t applies before traffic sent at time t."""
        sim = self.topology.sim
        for index, event in enumerate(self.events):
            sim.fire_at(event.time, self._fire, index)

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _link_effectively_up(self, link: Link) -> bool:
        key = edge_key(link.a.name, link.b.name)
        if key in self._admin_down:
            return False
        return (link.a.name not in self._crashed
                and link.b.name not in self._crashed)

    def _fire(self, index: int) -> None:
        event = self.events[index]
        kind = event.kind
        record: Dict[str, Any] = {"time": event.time, "kind": kind,
                                  "target": event.target}
        if event.link is not None:
            key = edge_key(*event.endpoints)
            if kind == "link_down":
                self._admin_down.add(key)
            else:
                self._admin_down.discard(key)
            touched = [event.link]
        else:
            name = event.node.name
            if kind == "router_crash":
                self._crashed.add(name)
                record.update(self._wipe_router_state(event.node))
            else:
                self._crashed.discard(name)
            touched = list(event.node.links)
        downed: List[Link] = []
        restored: List[Link] = []
        for link in touched:
            up = self._link_effectively_up(link)
            if self.topology.set_link_state(link, up):
                (restored if up else downed).append(link)
        self.downed_links.update(downed)
        record["links_changed"] = len(downed) + len(restored)
        if downed or restored:
            record.update(self.topology.reroute_incremental(
                downed=downed, restored=restored))
        else:
            record.update(new_counters())
        self.timeline.append(record)
        for observer in self.observers:
            observer(record)

    def _wipe_router_state(self, node: BorderRouter) -> Dict[str, int]:
        """A crash loses volatile state: wire-speed filters and, when an
        AITF agent runs on the router, its DRAM shadow cache."""
        filters_lost = len(node.filter_table.entries())
        node.filter_table.clear()
        shadow_lost = 0
        deployment = self.deployment
        if deployment is not None:
            try:
                agent = deployment.gateway_agent(node.name)
            except (KeyError, AttributeError):
                agent = None
            if agent is not None:
                shadow_lost = len(agent.shadow_cache)
                agent.shadow_cache.clear()
        return {"filters_lost": filters_lost,
                "shadow_entries_lost": shadow_lost}
