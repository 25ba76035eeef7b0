"""Pluggable defense backends.

Every mechanism the paper compares — AITF itself, Pushback, universal
ingress/DPF filtering, a human operator installing filters by hand, and no
defense at all — sits behind the same three-phase interface, so one harness
runs all of them and reports the same metric names (experiment E9's
comparison table falls out of a parameter sweep instead of bespoke code):

* :meth:`DefenseBackend.deploy` — called after the topology is built and
  before workloads exist; installs agents / flips router modes.
* :meth:`DefenseBackend.arm` — called after workloads are built; points the
  defense at the attack (mark detectors, schedule operator responses, start
  aggregate limiters at the congested router).
* :meth:`DefenseBackend.collect` — called after the simulation ran; returns
  a stats dict that always contains ``backend``, ``time_to_first_block``
  (seconds after attack start, or None), ``nodes_involved`` (how many nodes
  actively participated in the defense) and ``control_messages`` (how many
  defense-plane messages were exchanged), plus backend-specific extras.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.deployment import AITFDeployment, deploy_aitf
from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.experiments.registry import DEFENSES
from repro.net.flowlabel import FlowLabel
from repro.router.nodes import BorderRouter
from repro.sim.randomness import SeededRandom, stable_seed


class DefenseBackend:
    """Base class: a no-op defense (also registered as ``none``)."""

    name = "none"

    def deploy(self, ctx: Any) -> None:
        """Install the mechanism on the freshly built topology."""

    def arm(self, ctx: Any) -> None:
        """Point the mechanism at the attack workloads (now built)."""

    def collect(self, ctx: Any) -> Dict[str, Any]:
        """Uniform stats; see the module docstring for the common keys."""
        return {"backend": self.name, "time_to_first_block": None,
                "nodes_involved": 0, "control_messages": 0}


DEFENSES.register("none", DefenseBackend)


@DEFENSES.register("aitf")
class AITFBackend(DefenseBackend):
    """The paper's mechanism: AITF agents on every host and border router.

    ``deployment`` places the filtering gateways: non-deployed routers
    forward normally but neither stamp the route-record shim nor run an
    AITF agent, so recorded attack paths — and therefore escalation — only
    ever name deployed gateways, exactly as the paper's partial-deployment
    analysis assumes.  ``compromised_routers`` forge verification replies
    for flows they route (the paper's Section III-B on-path caveat), so
    red-team sweeps can place the compromise.
    """

    name = "aitf"

    def __init__(self, *, non_cooperating: Sequence[str] = (),
                 disconnection_enabled: bool = False,
                 shadow_enabled: bool = True, cooperative: bool = True,
                 redetect_gap: Optional[float] = None, deployment: str = "all",
                 non_cooperating_attackers: bool = False,
                 compromised_routers: Sequence[str] = ()) -> None:
        self.non_cooperating = tuple(non_cooperating)
        self.disconnection_enabled = bool(disconnection_enabled)
        self.shadow_enabled = bool(shadow_enabled)
        self.cooperative = bool(cooperative)
        self.redetect_gap = float(redetect_gap) if redetect_gap is not None else None
        self.locus = str(deployment)
        self.non_cooperating_attackers = bool(non_cooperating_attackers)
        self.compromised_routers = tuple(compromised_routers)
        self.deployment: Optional[AITFDeployment] = None
        self.detector: Optional[ExplicitDetector] = None
        self.deployed_gateways: Optional[frozenset] = None
        #: A ``CompromisedRouterBehaviour`` per compromised router.
        self.compromised: List[Any] = []

    def _gateway_names(self, ctx: Any) -> Optional[frozenset]:
        """Resolve the ``deployment`` locus to a set of router names."""
        locus = self.locus
        if locus == "all":
            return None
        victim_gw = ctx.handle.victim_gateway.name
        if locus == "victim-stub":
            return frozenset((victim_gw,))
        routers = sorted(r.name for r in ctx.handle.topology.border_routers())
        if locus.startswith("random-"):
            try:
                percent = float(locus[len("random-"):])
            except ValueError:
                raise ValueError(f"bad deployment locus {locus!r}: expected "
                                 f"random-K with K a percentage") from None
            count = max(1, round(len(routers) * percent / 100.0))
            rng = SeededRandom(stable_seed(ctx.spec.seed, "deployment", locus),
                               name="deployment-locus")
            selected = set(rng.sample(routers, min(count, len(routers))))
            selected.add(victim_gw)
            return frozenset(selected)
        tier_of = getattr(ctx.handle.raw, "tier_of", None)
        if tier_of is None:
            raise ValueError(
                f"deployment locus {locus!r} needs a tiered topology "
                f"(hierarchy); {ctx.handle.kind!r} has no tier annotations")
        wanted = {"tier1": 1, "tier2": 2, "stubs": 3}.get(locus)
        if wanted is None:
            raise ValueError(
                f"unknown deployment locus {locus!r}: expected all, tier1, "
                f"tier2, stubs, victim-stub or random-K")
        selected = {name for name in routers if tier_of.get(name) == wanted}
        selected.add(victim_gw)
        return frozenset(selected)

    def deploy(self, ctx: Any) -> None:
        self.deployed_gateways = self._gateway_names(ctx)
        self.deployment = deploy_aitf(
            ctx.handle.all_nodes(), ctx.config,
            rng=SeededRandom(ctx.spec.seed, name="deployment"),
            cooperative=self.cooperative,
            gateway_names=self.deployed_gateways,
        )
        if self.deployed_gateways is not None:
            for router in ctx.handle.topology.border_routers():
                if router.name not in self.deployed_gateways:
                    router.stamp_route_record = False
        self.deployment.set_disconnection_enabled(self.disconnection_enabled)
        for node_name in self.non_cooperating:
            self.deployment.set_cooperative(node_name, False)
        if not self.shadow_enabled:
            # Ablation: a victim's gateway that forgets requests as soon as
            # its temporary filter expires cannot tell a reappearing flow
            # from a new one.
            gateway_agent = self.deployment.gateway_agent(ctx.handle.victim_gateway.name)
            gateway_agent.shadow_cache.capacity = 1
            gateway_agent.shadow_cache.clear()
            gateway_agent.config = ctx.config.with_overrides(shadow_timeout=1e-3)
        self.compromised = []
        for router_name in self.compromised_routers:
            try:
                node = ctx.handle.topology.node(router_name)
            except KeyError:
                node = None
            if not isinstance(node, BorderRouter):
                raise ValueError(
                    f"compromised_routers names {router_name!r}, which is "
                    "not a border router of this topology")
            from repro.attacks.malicious import CompromisedRouterBehaviour

            self.compromised.append(CompromisedRouterBehaviour(node))
        victim_agent = self.deployment.host_agent(ctx.handle.victim.name)
        self.detector = ExplicitDetector(
            victim_agent, detection_delay=ctx.spec.detection_delay,
            redetect_gap=self.redetect_gap)

    def arm(self, ctx: Any) -> None:
        assert self.deployment is not None and self.detector is not None
        for workload in ctx.attack_workloads():
            for host in workload.attacker_hosts:
                self.detector.mark_undesired(host.address)
                if self.non_cooperating_attackers:
                    self.deployment.set_cooperative(host.name, False)
            workload.register_stop_callbacks(self.deployment.host_agents)

    def collect(self, ctx: Any) -> Dict[str, Any]:
        assert self.deployment is not None
        log = self.deployment.event_log
        attack_start = ctx.attack_window_start
        victim_gw = ctx.handle.victim_gateway.name

        time_to_first_block = None
        first_temp = log.first(EventType.TEMP_FILTER_INSTALLED, node=victim_gw)
        if first_temp is not None:
            time_to_first_block = first_temp.time - attack_start
        time_to_attacker_gw = None
        first_remote = log.first(EventType.FILTER_INSTALLED)
        if first_remote is not None:
            time_to_attacker_gw = first_remote.time - attack_start

        control_events = (EventType.REQUEST_SENT, EventType.HANDSHAKE_STARTED,
                          EventType.HANDSHAKE_CONFIRMED, EventType.HANDSHAKE_FAILED)
        gateway_agent = self.deployment.gateway_agents.get(victim_gw)
        victim_gw_table = ctx.handle.victim_gateway.filter_table
        return {
            "backend": self.name,
            "time_to_first_block": time_to_first_block,
            "nodes_involved": len({event.node for event in log}),
            "control_messages": sum(log.count(e) for e in control_events),
            "time_to_attacker_gateway_filter": time_to_attacker_gw,
            "escalation_rounds": log.max_round(),
            "disconnections": log.count(EventType.DISCONNECTION),
            "shadow_hits": log.count(EventType.SHADOW_HIT),
            "requests_sent_by_victim": len([
                e for e in log.of_type(EventType.REQUEST_SENT)
                if e.node == ctx.handle.victim.name
            ]),
            "deployment_locus": self.locus,
            "deployed_gateways": (len(self.deployment.gateway_agents)),
            "victim_gateway_filter_peak": victim_gw_table.peak_occupancy,
            "victim_gateway_filter_failures": victim_gw_table.install_failures,
            "victim_gateway_shadow_peak": (
                gateway_agent.shadow_cache.peak_occupancy
                if gateway_agent is not None else 0),
            "victim_gateway_shadow_failures": (
                gateway_agent.shadow_cache.insert_failures
                if gateway_agent is not None else 0),
            "requests_rejected": log.count(EventType.REQUEST_REJECTED),
            "verification_replies_forged": sum(
                behaviour.replies_forged for behaviour in self.compromised),
            "compromised_routers": sorted(
                behaviour.router.name for behaviour in self.compromised),
        }



@DEFENSES.register("pushback")
class PushbackBackend(DefenseBackend):
    """Mahajan et al.'s Pushback: hop-by-hop aggregate rate limiting.

    The victim's gateway starts rate-limiting the aggregate "everything
    toward the victim" ``detection_delay`` seconds after the attack starts,
    then recursively asks upstream routers to do the same.
    """

    name = "pushback"

    def __init__(self, *, limit_bps: float = 1e6, review_interval: float = 0.5,
                 drop_rate_threshold: float = 0.2) -> None:
        self.limit_bps = float(limit_bps)
        self.review_interval = float(review_interval)
        self.drop_rate_threshold = float(drop_rate_threshold)
        #: The ``PushbackDeployment`` once deployed.
        self.deployment: Any = None

    def deploy(self, ctx: Any) -> None:
        from repro.baselines.pushback import deploy_pushback

        self.deployment = deploy_pushback(
            ctx.handle.topology.border_routers(),
            limit_bps=self.limit_bps,
            review_interval=self.review_interval,
            drop_rate_threshold=self.drop_rate_threshold,
        )

    def arm(self, ctx: Any) -> None:
        assert self.deployment is not None
        aggregate = FlowLabel.to_destination(ctx.handle.victim.address)
        start_at = ctx.attack_window_start + ctx.spec.detection_delay
        ctx.sim.call_at(start_at, self.deployment.start_at,
                        ctx.handle.victim_gateway.name, aggregate,
                        name="pushback-detection")

    def collect(self, ctx: Any) -> Dict[str, Any]:
        assert self.deployment is not None
        victim_gw_agent = self.deployment.agents.get(ctx.handle.victim_gateway.name)
        time_to_first_block = None
        if victim_gw_agent is not None and victim_gw_agent.limiters:
            first = min(limiter.installed_at
                        for limiter in victim_gw_agent.limiters.values())
            time_to_first_block = first - ctx.attack_window_start
        dropped = passed = 0
        for agent in self.deployment.agents.values():
            for limiter in agent.limiters.values():
                dropped += limiter.packets_dropped
                passed += limiter.packets_passed
        return {
            "backend": self.name,
            "time_to_first_block": time_to_first_block,
            "nodes_involved": self.deployment.routers_involved,
            "control_messages": self.deployment.total_requests,
            "total_limiters": self.deployment.total_limiters,
            "packets_dropped": dropped,
            "packets_passed": passed,
        }



@DEFENSES.register("ingress-dpf")
class IngressDPFBackend(DefenseBackend):
    """Route-based/ingress filtering in the spirit of DPF [PL01]: every
    border router enforces its per-link source policy.  Proactive — there is
    no reaction time — but only spoofed traffic is affected."""

    name = "ingress-dpf"

    def deploy(self, ctx: Any) -> None:
        from repro.baselines.ingress_dpf import enable_universal_ingress_filtering

        enable_universal_ingress_filtering(ctx.handle.all_nodes())

    def collect(self, ctx: Any) -> Dict[str, Any]:
        from repro.baselines.ingress_dpf import collect_ingress_stats

        stats = collect_ingress_stats(ctx.handle.all_nodes())
        return {
            "backend": self.name,
            # Proactive: whatever it blocks, it blocks from t=0.
            "time_to_first_block": 0.0 if stats.spoofed_dropped else None,
            "nodes_involved": stats.routers_enforcing,
            "control_messages": 0,
            "packets_checked": stats.packets_checked,
            "spoofed_detected": stats.spoofed_detected,
            "spoofed_dropped": stats.spoofed_dropped,
            "detection_ratio": stats.detection_ratio,
        }



@DEFENSES.register("manual")
class ManualBackend(DefenseBackend):
    """The status quo: a human operator notices the attack, configures the
    edge router, then phones the ISP for an upstream filter (paper-scale
    delays of minutes)."""

    name = "manual"

    def __init__(self, *, local_response_delay: float = 300.0,
                 upstream_response_delay: float = 900.0,
                 filter_duration: float = 3600.0) -> None:
        self.local_response_delay = float(local_response_delay)
        self.upstream_response_delay = float(upstream_response_delay)
        self.filter_duration = float(filter_duration)
        #: The ``ManualFilteringOperator`` once deployed.
        self.operator: Any = None

    def deploy(self, ctx: Any) -> None:
        from repro.baselines.manual import ManualFilteringOperator

        self.operator = ManualFilteringOperator(
            ctx.sim,
            local_response_delay=self.local_response_delay,
            upstream_response_delay=self.upstream_response_delay,
            filter_duration=self.filter_duration,
        )

    def arm(self, ctx: Any) -> None:
        assert self.operator is not None
        for workload in ctx.attack_workloads():
            hosts = workload.attacker_hosts
            labels = workload.flow_labels
            # Pair labels with their source hosts when the workload gives us
            # one label per host (floods, zombie armies); otherwise fall back
            # to the first attacker's path for the upstream router.
            for index, label in enumerate(labels):
                host = hosts[index] if index < len(hosts) else hosts[0]
                upstream = ctx.handle.upstream_of_victim_gateway(host)
                self.operator.respond(
                    label, ctx.handle.victim_gateway, upstream,
                    attack_start=workload.start_time + ctx.spec.detection_delay,
                )

    def collect(self, ctx: Any) -> Dict[str, Any]:
        assert self.operator is not None
        first = self.operator.time_to_first_filter()
        routers = {action.router.name for action in self.operator.actions
                   if action.installed_at is not None}
        return {
            "backend": self.name,
            "time_to_first_block": (first - ctx.attack_window_start)
            if first is not None else None,
            "nodes_involved": len(routers),
            # Operators coordinate by telephone, not control packets.
            "control_messages": 0,
            "filters_installed": self.operator.filters_installed,
            "filters_scheduled": len(self.operator.actions),
        }



def build_backend(name: str, params: Mapping[str, Any]) -> DefenseBackend:
    """Resolve ``name`` in the registry and instantiate the backend with the
    params it declares (a spec's defense params may name other backends')."""
    backend_class = DEFENSES.get(name)
    declared = DEFENSES.parameters(name)
    return backend_class(**{key: value for key, value in params.items()
                            if key in declared})
