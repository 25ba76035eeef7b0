"""Workload registry: traffic sources built from workload specs.

Every workload normalises to a :class:`WorkloadHandle` so the runner can
start it, meter it and report it without knowing what kind of generator sits
behind it.  Attack workloads additionally expose their flow labels and
attacker hosts so defense backends can arm themselves (mark detectors,
schedule manual responses, wire stop callbacks).  Beside ``stats()`` each
handle declares ``shard_rules``: how every key it reports combines across
the shards of a sharded run (:mod:`repro.experiments.combine`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

from repro.attacks.flood import FloodAttack, SpoofedFloodAttack
from repro.attacks.legitimate import LegitimateTraffic, PoissonTraffic
from repro.attacks.malicious import RequestForger
from repro.attacks.onoff import OnOffAttack
from repro.attacks.zombies import ZombieArmy
from repro.core.messages import RequestRole
from repro.experiments.combine import owns_everything, shared
from repro.experiments.registry import WORKLOADS
from repro.net.flowlabel import FlowLabel
from repro.router.nodes import Host


class WorkloadHandle:
    """One built traffic source, attack or legitimate."""

    role = "attack"

    def __init__(self, kind: str, generator: Any, *, start_time: float,
                 params: Mapping[str, Any]) -> None:
        self.kind = kind
        self.generator = generator
        self.start_time = start_time
        self.params = dict(params)

    def start(self, owns: Callable[[str], bool] = owns_everything) -> None:
        """Begin emitting (the generator schedules itself from its start
        time) if this process ``owns`` the node it emits from."""
        if owns(self.origin):
            self.generator.start()

    @property
    def origin(self) -> str:
        """Name of the node this workload emits from."""
        return self.generator.sender.name

    # -- attack-side surface (legit workloads return empties) ----------
    @property
    def flow_labels(self) -> List[FlowLabel]:
        """Labels a victim would use to block this workload."""
        return []

    @property
    def attacker_hosts(self) -> List[Host]:
        """Hosts this workload emits from."""
        return []

    def register_stop_callbacks(self, host_agents: Mapping[str, Any]) -> None:
        """Wire AITF stop requests into the generator (attack workloads only)."""

    # -- accounting ----------------------------------------------------
    @property
    def offered_bps(self) -> float:
        """Average offered load in bits per second (duty-cycle adjusted)."""
        return self.generator.offered_rate_bps

    def stats(self) -> Dict[str, Any]:
        """Per-workload counters for the result document."""
        return {"kind": self.kind, "role": self.role,
                "offered_bps": self.offered_bps}

    shard_rules: Dict[str, Any] = dict.fromkeys(
        ("kind", "role", "offered_bps"), shared)


class _SingleAttackHandle(WorkloadHandle):
    """An attack from one host with one (src, dst) flow label."""

    def __init__(self, kind: str, generator: Any, attacker: Host,
                 **kwargs: Any) -> None:
        super().__init__(kind, generator, **kwargs)
        self.attacker = attacker

    @property
    def origin(self) -> str:
        return self.attacker.name

    @property
    def flow_labels(self) -> List[FlowLabel]:
        return [self.generator.flow_label]

    @property
    def attacker_hosts(self) -> List[Host]:
        return [self.attacker]

    def register_stop_callbacks(self, host_agents: Mapping[str, Any]) -> None:
        agent = host_agents.get(self.attacker.name)
        if agent is not None:
            agent.on_stop_request(self.generator.stop_flow_callback)

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats.update(
            packets_sent=self.generator.packets_sent,
            packets_suppressed=self.generator.packets_suppressed,
        )
        return stats

    shard_rules = {**WorkloadHandle.shard_rules,
                   "packets_sent": sum, "packets_suppressed": sum}


def _train_kwargs(ctx: Any) -> Dict[str, Any]:
    """Generator kwargs carrying the experiment's engine selection.

    On the train engine every generator learns the aggregation bound and
    the run horizon (trains must not outlive the simulation, or the
    emitted-packet count would differ from per-packet emission); on the
    packet engine generators keep their default, ``max_train = 1``.
    """
    engine = getattr(ctx, "engine", None)
    if engine is None or engine.mode != "train":
        return {}
    kwargs = {"max_train": engine.max_train, "horizon": ctx.spec.duration}
    if engine.max_span is not None:
        kwargs["max_span"] = engine.max_span
    return kwargs


@WORKLOADS.register("flood")
def _build_flood(ctx: Any, index: int, params: Mapping[str, Any]) -> WorkloadHandle:
    """Constant-rate flood from one attacker host.  Params: ``rate_pps``,
    ``packet_size``, ``start``, ``duration``, ``attacker`` (index into the
    topology's attacker candidates), ``spoofed``."""
    attacker = _pick_attacker(ctx, params)
    start = float(params.get("start", 0.0))
    common = dict(
        rate_pps=float(params.get("rate_pps", 1000.0)),
        packet_size=int(params.get("packet_size", 1000)),
        start_time=start,
        duration=params.get("duration"),
        **_train_kwargs(ctx),
    )
    if params.get("spoofed", False):
        attack = SpoofedFloodAttack(attacker, ctx.handle.victim.address,
                                    rng=ctx.rng.fork(f"spoof-{index}"), **common)
    else:
        attack = FloodAttack(attacker, ctx.handle.victim.address, **common)
    return _SingleAttackHandle("flood", attack, attacker,
                               start_time=start, params=params)


@WORKLOADS.register("onoff")
def _build_onoff(ctx: Any, index: int, params: Mapping[str, Any]) -> WorkloadHandle:
    """Pulsed attack (Section II-B).  ``on_duration`` / ``off_duration``
    default to the attacker-optimal cadence derived from the run's Ttmp."""
    attacker = _pick_attacker(ctx, params)
    ttmp = ctx.config.temporary_filter_timeout
    on = params.get("on_duration")
    off = params.get("off_duration")
    start = float(params.get("start", 0.0))
    attack = OnOffAttack(
        attacker, ctx.handle.victim.address,
        rate_pps=float(params.get("rate_pps", 1000.0)),
        packet_size=int(params.get("packet_size", 1000)),
        on_duration=float(on) if on is not None else ttmp * 0.5,
        off_duration=float(off) if off is not None else ttmp * 1.5,
        start_time=start,
        cycles=params.get("cycles"),
        **_train_kwargs(ctx),
    )
    handle = _OnOffHandle("onoff", attack, attacker, start_time=start, params=params)
    return handle


class _OnOffHandle(_SingleAttackHandle):
    @property
    def offered_bps(self) -> float:
        # The attack only offers traffic during on-phases; report the
        # duty-cycle average so ratios compare like with like.
        attack = self.generator
        duty = attack.on_duration / (attack.on_duration + attack.off_duration)
        return attack.offered_rate_bps * duty

    def register_stop_callbacks(self, host_agents: Mapping[str, Any]) -> None:
        # An on-off attacker is by definition not a well-behaved sender; it
        # never honours stop requests (its own gateway has to block it).
        return

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["cycles_completed"] = self.generator.cycles_completed
        return stats

    shard_rules = {**_SingleAttackHandle.shard_rules, "cycles_completed": sum}


@WORKLOADS.register("legitimate")
def _build_legitimate(ctx: Any, index: int, params: Mapping[str, Any]) -> WorkloadHandle:
    """Well-behaved traffic toward the victim.  Params: ``rate_pps``,
    ``packet_size``, ``start``, ``duration``, ``sender`` (index into the
    topology's legitimate-sender candidates), ``poisson``."""
    sender = _pick_sender(ctx, params)
    start = float(params.get("start", 0.0))
    common = dict(
        rate_pps=float(params.get("rate_pps", 100.0)),
        packet_size=int(params.get("packet_size", 1000)),
        start_time=start,
        duration=params.get("duration"),
        **_train_kwargs(ctx),
    )
    if params.get("poisson", False):
        traffic = PoissonTraffic(sender, ctx.handle.victim.address,
                                 rng=ctx.rng.fork(f"poisson-{index}"), **common)
    else:
        traffic = LegitimateTraffic(sender, ctx.handle.victim.address, **common)
    traffic.attach_receiver(ctx.handle.victim)
    handle = WorkloadHandle("legitimate", traffic, start_time=start, params=params)
    handle.role = "legit"
    return handle


@WORKLOADS.register("zombies")
def _build_zombies(ctx: Any, index: int, params: Mapping[str, Any]) -> WorkloadHandle:
    """A zombie army: ``count`` attacker hosts flooding the victim together.
    Params: ``count``, ``rate_pps`` (per zombie), ``packet_size``, ``start``,
    ``start_jitter``, ``spoofed``."""
    candidates = list(ctx.handle.attackers)
    if not candidates:
        raise ValueError(f"topology {ctx.handle.kind!r} has no attacker hosts")
    count = int(params.get("count", len(candidates)))
    if count < 1 or count > len(candidates):
        raise ValueError(f"zombie count {count} out of range "
                         f"(topology offers {len(candidates)} attacker hosts)")
    zombies = candidates[:count]
    start = float(params.get("start", 0.0))
    army = ZombieArmy(
        zombies, ctx.handle.victim.address,
        rate_pps_per_zombie=float(params.get("rate_pps", 200.0)),
        packet_size=int(params.get("packet_size", 1000)),
        start_time=start,
        start_jitter=float(params.get("start_jitter", 0.0)),
        spoofed=bool(params.get("spoofed", False)),
        duration=params.get("duration"),
        rng=ctx.rng.fork(f"zombies-{index}"),
        **_train_kwargs(ctx),
    )
    return _ZombieHandle("zombies", army, zombies, start_time=start, params=params)


class _ZombieHandle(WorkloadHandle):
    #: Every ZombieArmy packet carries this tag; the runner meters by it.
    flow_tag = "zombie-attack"

    def __init__(self, kind: str, army: ZombieArmy, zombies: List[Host],
                 **kwargs: Any) -> None:
        super().__init__(kind, army, **kwargs)
        self._zombies = list(zombies)

    def start(self, owns: Callable[[str], bool] = owns_everything) -> None:
        # One army can span shards: each zombie starts where its host lives.
        for attack in self.generator.attacks:
            if owns(attack.attacker.name):
                attack.start()

    @property
    def flow_labels(self) -> List[FlowLabel]:
        return self.generator.flow_labels

    @property
    def attacker_hosts(self) -> List[Host]:
        return list(self._zombies)

    def register_stop_callbacks(self, host_agents: Mapping[str, Any]) -> None:
        self.generator.register_with_agents(dict(host_agents))

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats.update(zombies=len(self._zombies),
                     packets_sent=self.generator.packets_sent,
                     active_count=self.generator.active_count)
        return stats

    # A zombie some shard never started is not active there.
    shard_rules = {**WorkloadHandle.shard_rules, "zombies": shared,
                   "packets_sent": sum, "active_count": sum}


class FilterRequestStream:
    """Synthetic filtering-request load (the E2–E5 resource experiments).

    The victim requests a block against a fresh undesired flow at a fixed
    rate: sources rotate over every non-victim end host and the destination
    port rotates so each request occupies its own filter slot — exactly the
    load the paper's provisioning formulas (nv, mv, Nv, na) are written in
    terms of, without simulating thousands of literal zombies.
    """

    def __init__(self, ctx: Any, *, rate: float, duration: Any = None,
                 start_time: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("filter-requests rate must be positive")
        self.ctx = ctx
        self.rate = rate
        #: None = follow the experiment horizon (the spec's duration).
        self.duration = duration
        self.start_time = start_time
        self.requests_sent = 0
        handle = ctx.handle
        self._victim = handle.victim
        self._pool = [*handle.attackers, *handle.legit_senders]
        if not self._pool:
            raise ValueError(
                f"topology {handle.kind!r} has no non-victim end hosts to "
                "synthesise undesired flows from")

    @property
    def offered_rate_bps(self) -> float:
        # Control-plane load, not data traffic.
        return 0.0

    def start(self) -> None:
        """Schedule every request up front (the golden recordings' order)."""
        deployment = getattr(self.ctx.backend, "deployment", None)
        if deployment is None or not hasattr(deployment, "host_agent"):
            raise ValueError(
                "the filter-requests workload needs the 'aitf' defense "
                f"backend (got {self.ctx.spec.defense.backend!r})")
        self._victim_agent = deployment.host_agent(self._victim.name)
        interval = 1.0 / self.rate
        duration = (self.duration if self.duration is not None
                    else self.ctx.spec.duration - self.start_time)
        count = int(duration * self.rate)
        sim = self.ctx.sim
        for index in range(count):
            sim.call_at(self.start_time + index * interval,
                        self._send_one_request, name="synthetic-request")

    def _send_one_request(self) -> None:
        source = self._pool[self.requests_sent % len(self._pool)]
        label = FlowLabel.between(
            source.address, self._victim.address,
            protocol="udp", dst_port=1024 + self.requests_sent % 60000,
        )
        attack_path = self.ctx.handle.topology.border_router_path(
            source, self._victim)
        self._victim_agent.request_filtering(label, attack_path=attack_path)
        self.requests_sent += 1


class _FilterRequestHandle(WorkloadHandle):
    """Control-plane workload: neither attack nor legitimate traffic."""

    role = "control"

    @property
    def origin(self) -> str:
        # The requests go out through the victim's own agent.
        return self.generator.ctx.handle.victim.name

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["requests_sent"] = self.generator.requests_sent
        stats["rate"] = self.generator.rate
        return stats

    shard_rules = {**WorkloadHandle.shard_rules,
                   "requests_sent": sum, "rate": shared}


@WORKLOADS.register("filter-requests")
def _build_filter_requests(ctx: Any, index: int,
                           params: Mapping[str, Any]) -> WorkloadHandle:
    """Filtering requests from the victim at rate R (Sections IV-A.2–IV-D).
    Params: ``rate`` (default: the run's ``default_send_rate`` contract),
    ``duration`` (default: the spec horizon), ``start``.  Requires the
    ``aitf`` backend."""
    rate = float(params.get("rate", ctx.config.default_send_rate))
    start = float(params.get("start", 0.0))
    duration = params.get("duration")
    stream = FilterRequestStream(
        ctx, rate=rate,
        duration=float(duration) if duration is not None else None,
        start_time=start,
    )
    return _FilterRequestHandle("filter-requests", stream,
                                start_time=start, params=params)


class ForgedRequestStream:
    """Forged filtering requests pressuring the victim's gateway (Section III-B).

    A compromised client of the victim's *own* gateway asks it to block a
    fresh fabricated flow at a fixed rate.  Every request names the real
    victim and carries the forger's genuine source address, so it passes
    the gateway's victim-side sanity check and occupies a wire-speed slot
    for Ttmp plus a shadow entry for T — exactly the filter-table
    exhaustion pressure the paper's security analysis worries about.  The
    fabricated labels never survive the 3-way handshake at any remote
    gateway (the claimed sources never asked for anything), so the damage
    is confined to the victim gateway's own tables.

    With ``spoofed`` the request packets instead carry the first
    attacker's address as their source, which the gateway's ownership /
    ingress checks reject — the control case.
    """

    def __init__(self, ctx: Any, forger_host: Host, *, rate: float,
                 duration: Any = None, start_time: float = 0.0,
                 spoofed: bool = False) -> None:
        if rate <= 0:
            raise ValueError("forged-requests rate must be positive")
        self.ctx = ctx
        self.rate = rate
        self.duration = duration
        self.start_time = start_time
        self.spoofed = spoofed
        handle = ctx.handle
        self._victim = handle.victim
        self._gateway = handle.victim_gateway
        #: Fabricated labels claim these hosts as their undesired sources;
        #: the rotating destination port makes every label unique so each
        #: occupies its own filter slot.
        self._pool = [*handle.attackers] or [*handle.legit_senders]
        if not self._pool:
            raise ValueError(
                f"topology {handle.kind!r} has no non-victim end hosts to "
                "fabricate undesired flows from")
        spoof_source = None
        if spoofed:
            if not handle.attackers:
                raise ValueError("spoofed forged-requests need an attacker "
                                 "host whose address can be borrowed")
            spoof_source = handle.attackers[0].address
        self.forger = RequestForger(forger_host, spoof_source=spoof_source)

    @property
    def offered_rate_bps(self) -> float:
        # Control-plane load, not data traffic.
        return 0.0

    @property
    def requests_sent(self) -> int:
        return self.forger.requests_sent

    def start(self) -> None:
        """Schedule every forged request up front (deterministic order)."""
        interval = 1.0 / self.rate
        duration = (self.duration if self.duration is not None
                    else self.ctx.spec.duration - self.start_time)
        count = int(duration * self.rate)
        sim = self.ctx.sim
        for index in range(count):
            sim.call_at(self.start_time + index * interval,
                        self._send_one, name="forged-request")

    def _send_one(self) -> None:
        index = self.forger.requests_sent
        source = self._pool[index % len(self._pool)]
        label = FlowLabel.between(
            source.address, self._victim.address,
            protocol="udp", dst_port=1024 + index % 60000,
        )
        self.forger.forge_request(
            self._gateway.address, label,
            role=RequestRole.TO_VICTIM_GATEWAY,
            victim=self._victim.address,
        )


class _ForgedRequestHandle(_FilterRequestHandle):
    """Control-plane abuse: neither data attack nor legitimate traffic."""

    @property
    def origin(self) -> str:
        return self.generator.forger.host.name

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["spoofed"] = self.generator.spoofed
        return stats

    shard_rules = {**_FilterRequestHandle.shard_rules, "spoofed": shared}


@WORKLOADS.register("forged-requests")
def _build_forged_requests(ctx: Any, index: int,
                           params: Mapping[str, Any]) -> WorkloadHandle:
    """Forged filtering-request storm against the victim's gateway
    (Section III-B).  Params: ``rate``, ``start``, ``duration`` (default:
    the spec horizon), ``forger`` (index into the topology's
    legitimate-sender candidates — the forger must be a client of the
    victim's gateway for its requests to pass the victim-side check),
    ``spoofed`` (carry a source the forger does not own; the gateway
    rejects these)."""
    forger_host = _pick_sender(ctx, params, key="forger")
    rate = float(params.get("rate", 50.0))
    start = float(params.get("start", 0.0))
    duration = params.get("duration")
    stream = ForgedRequestStream(
        ctx, forger_host, rate=rate,
        duration=float(duration) if duration is not None else None,
        start_time=start,
        spoofed=bool(params.get("spoofed", False)),
    )
    return _ForgedRequestHandle("forged-requests", stream,
                                start_time=start, params=params)


def _pick_attacker(ctx: Any, params: Mapping[str, Any]) -> Host:
    candidates = list(ctx.handle.attackers)
    if not candidates:
        raise ValueError(f"topology {ctx.handle.kind!r} has no attacker hosts")
    index = int(params.get("attacker", 0))
    if not 0 <= index < len(candidates):
        raise ValueError(f"attacker index {index} out of range "
                         f"(topology offers {len(candidates)})")
    return candidates[index]


def _pick_sender(ctx: Any, params: Mapping[str, Any],
                 key: str = "sender") -> Host:
    candidates = list(ctx.handle.legit_senders)
    if not candidates:
        raise ValueError(
            f"topology {ctx.handle.kind!r} has no legitimate-sender hosts "
            "(e.g. build figure1 with extra_good_hosts >= 1)"
        )
    index = int(params.get(key, 0))
    if not 0 <= index < len(candidates):
        raise ValueError(f"{key} index {index} out of range "
                         f"(topology offers {len(candidates)})")
    return candidates[index]


def build_workload(ctx: Any, index: int, kind: str,
                   params: Mapping[str, Any]) -> WorkloadHandle:
    """Resolve ``kind`` in the registry and build the handle."""
    builder = WORKLOADS.get(kind)
    return builder(ctx, index, params)
