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

Beside ``collect()`` each backend declares ``shard_rules``: how every key
it reports combines across the shards of a sharded run
(:mod:`repro.experiments.combine`).  A key without a rule fails the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.attacks.malicious import CompromisedRouterBehaviour
from repro.baselines.ingress_dpf import (
    IngressDeploymentStats,
    collect_ingress_stats,
    enable_universal_ingress_filtering,
)
from repro.baselines.manual import ManualFilteringOperator
from repro.baselines.pushback import PushbackDeployment, deploy_pushback
from repro.core.deployment import AITFDeployment, deploy_aitf
from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.experiments.combine import Derived, earliest, shared, victim
from repro.experiments.registry import DEFENSES
from repro.net.flowlabel import FlowLabel
from repro.router.nodes import BorderRouter
from repro.sim.randomness import SeededRandom, stable_seed


class DefenseBackend:
    """Base class: a no-op defense (also registered as ``none``)."""

    name = "none"

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        self.params = dict(params or {})

    def deploy(self, ctx: Any) -> None:
        """Install the mechanism on the freshly built topology."""

    def arm(self, ctx: Any) -> None:
        """Point the mechanism at the attack workloads (now built)."""

    def collect(self, ctx: Any) -> Dict[str, Any]:
        """Uniform stats; see the module docstring for the common keys."""
        return {"backend": self.name, "time_to_first_block": None,
                "nodes_involved": 0, "control_messages": 0}

    shard_rules: Dict[str, Any] = dict.fromkeys(
        ("backend", "time_to_first_block", "nodes_involved",
         "control_messages"), shared)


DEFENSES.register("none", DefenseBackend)


@DEFENSES.register("aitf")
class AITFBackend(DefenseBackend):
    """The paper's mechanism: AITF agents on every host and border router.

    Params: ``non_cooperating`` (node names that ignore AITF),
    ``disconnection_enabled``, ``shadow_enabled`` (ablate the victim
    gateway's DRAM shadow cache), ``cooperative`` (initial flag for all),
    ``redetect_gap`` (seconds of silence after which a reappearing
    undesired flow is re-reported along its fresh path — opt-in, for the
    fault-injection experiments), ``deployment`` (*where* in the network
    filtering gateways sit: ``all`` (default), ``tier1`` / ``tier2`` /
    ``stubs`` on tiered topologies, ``victim-stub`` (only the victim's
    own gateway), or ``random-K`` for a seeded K% of border routers;
    non-deployed routers forward normally but neither stamp the
    route-record shim nor run an AITF agent, so recorded attack paths —
    and therefore escalation — only ever name deployed gateways, exactly
    as the paper's partial-deployment analysis assumes),
    ``non_cooperating_attackers`` (flip every attack-workload host to
    non-cooperative without naming them, so floods keep pressing until
    gateway filters actually block them), and ``compromised_routers``
    (border-router names that forge verification replies for flows they
    route — the paper's Section III-B on-path caveat — made declarable so
    red-team sweeps can place the compromise).
    """

    name = "aitf"

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(params)
        self.deployment: Optional[AITFDeployment] = None
        self.detector: Optional[ExplicitDetector] = None
        self.deployed_gateways: Optional[frozenset] = None
        self.compromised: List[CompromisedRouterBehaviour] = []

    def _gateway_names(self, ctx: Any) -> Optional[frozenset]:
        """Resolve the ``deployment`` locus to a set of router names."""
        locus = str(self.params.get("deployment", "all"))
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
            cooperative=bool(self.params.get("cooperative", True)),
            gateway_names=self.deployed_gateways,
        )
        if self.deployed_gateways is not None:
            for router in ctx.handle.topology.border_routers():
                if router.name not in self.deployed_gateways:
                    router.stamp_route_record = False
        self.deployment.set_disconnection_enabled(
            bool(self.params.get("disconnection_enabled", False)))
        for node_name in self.params.get("non_cooperating", ()):
            self.deployment.set_cooperative(node_name, False)
        if not self.params.get("shadow_enabled", True):
            # Ablation: a victim's gateway that forgets requests as soon as
            # its temporary filter expires cannot tell a reappearing flow
            # from a new one.
            gateway_agent = self.deployment.gateway_agent(ctx.handle.victim_gateway.name)
            gateway_agent.shadow_cache.capacity = 1
            gateway_agent.shadow_cache.clear()
            gateway_agent.config = ctx.config.with_overrides(shadow_timeout=1e-3)
        self.compromised = []
        for router_name in self.params.get("compromised_routers", ()):
            try:
                node = ctx.handle.topology.node(router_name)
            except KeyError:
                node = None
            if not isinstance(node, BorderRouter):
                raise ValueError(
                    f"compromised_routers names {router_name!r}, which is "
                    "not a border router of this topology")
            self.compromised.append(CompromisedRouterBehaviour(node))
        victim_agent = self.deployment.host_agent(ctx.handle.victim.name)
        redetect_gap = self.params.get("redetect_gap")
        self.detector = ExplicitDetector(
            victim_agent, detection_delay=ctx.spec.detection_delay,
            redetect_gap=float(redetect_gap) if redetect_gap is not None else None)

    def arm(self, ctx: Any) -> None:
        assert self.deployment is not None and self.detector is not None
        uncooperative = bool(self.params.get("non_cooperating_attackers", False))
        for workload in ctx.attack_workloads():
            for host in workload.attacker_hosts:
                self.detector.mark_undesired(host.address)
                if uncooperative:
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
            "deployment_locus": str(self.params.get("deployment", "all")),
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

    # Every count is an event an agent logged at its own node, and a node's
    # agent runs on its owner's shard only: summed, nodes_involved too.
    shard_rules = {
        **dict.fromkeys(("backend", "deployment_locus", "deployed_gateways",
                         "compromised_routers"), shared),
        **dict.fromkeys(("time_to_first_block", "requests_sent_by_victim",
                         "victim_gateway_filter_peak",
                         "victim_gateway_filter_failures",
                         "victim_gateway_shadow_peak",
                         "victim_gateway_shadow_failures"), victim),
        **dict.fromkeys(("nodes_involved", "control_messages",
                         "disconnections", "shadow_hits", "requests_rejected",
                         "verification_replies_forged"), sum),
        "time_to_attacker_gateway_filter": earliest,
        "escalation_rounds": max,
    }


@DEFENSES.register("pushback")
class PushbackBackend(DefenseBackend):
    """Mahajan et al.'s Pushback: hop-by-hop aggregate rate limiting.

    The victim's gateway starts rate-limiting the aggregate "everything
    toward the victim" ``detection_delay`` seconds after the attack starts,
    then recursively asks upstream routers to do the same.  Params:
    ``limit_bps``, ``review_interval``, ``drop_rate_threshold``.
    """

    name = "pushback"

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(params)
        self.deployment: Optional[PushbackDeployment] = None

    def deploy(self, ctx: Any) -> None:
        self.deployment = deploy_pushback(
            ctx.handle.topology.border_routers(),
            limit_bps=float(self.params.get("limit_bps", 1e6)),
            review_interval=float(self.params.get("review_interval", 0.5)),
            drop_rate_threshold=float(self.params.get("drop_rate_threshold", 0.2)),
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

    # The rate-limit recursion is function calls out of the victim
    # gateway's agent, so the whole control plane runs on the victim's
    # shard (why congested cells should not shard: docs/sharding.md).
    shard_rules = {"backend": shared, **dict.fromkeys(
        ("time_to_first_block", "nodes_involved", "control_messages",
         "total_limiters", "packets_dropped", "packets_passed"), victim)}


@DEFENSES.register("ingress-dpf")
class IngressDPFBackend(DefenseBackend):
    """Route-based/ingress filtering in the spirit of DPF [PL01]: every
    border router enforces its per-link source policy.  Proactive — there is
    no reaction time — but only spoofed traffic is affected."""

    name = "ingress-dpf"

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(params)
        self._routers: List[Any] = []

    def deploy(self, ctx: Any) -> None:
        self._routers = enable_universal_ingress_filtering(ctx.handle.all_nodes())

    def collect(self, ctx: Any) -> Dict[str, Any]:
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

    shard_rules = {
        **dict.fromkeys(("backend", "nodes_involved", "control_messages"),
                        shared),
        **dict.fromkeys(("packets_checked", "spoofed_detected",
                         "spoofed_dropped"), sum),
        "time_to_first_block": earliest,
        "detection_ratio": Derived(lambda s: IngressDeploymentStats(
            packets_checked=s["packets_checked"],
            spoofed_detected=s["spoofed_detected"]).detection_ratio),
    }


@DEFENSES.register("manual")
class ManualBackend(DefenseBackend):
    """The status quo: a human operator notices the attack, configures the
    edge router, then phones the ISP for an upstream filter.  Params:
    ``local_response_delay``, ``upstream_response_delay``,
    ``filter_duration`` (all seconds; paper-scale defaults of minutes)."""

    name = "manual"

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(params)
        self.operator: Optional[ManualFilteringOperator] = None

    def deploy(self, ctx: Any) -> None:
        self.operator = ManualFilteringOperator(
            ctx.sim,
            local_response_delay=float(self.params.get("local_response_delay", 300.0)),
            upstream_response_delay=float(self.params.get("upstream_response_delay", 900.0)),
            filter_duration=float(self.params.get("filter_duration", 3600.0)),
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

    # Operator actions are time-triggered: every shard installs the same
    # filters at the same times.
    shard_rules = dict.fromkeys(
        ("backend", "time_to_first_block", "nodes_involved",
         "control_messages", "filters_installed", "filters_scheduled"),
        shared)


def build_backend(name: str, params: Mapping[str, Any]) -> DefenseBackend:
    """Resolve ``name`` in the registry and instantiate the backend."""
    backend_class = DEFENSES.get(name)
    return backend_class(params)
