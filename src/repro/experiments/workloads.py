"""Workload registry: traffic sources built from workload specs.

Every workload normalises to a :class:`WorkloadHandle` so the runner can
start it, meter it and report it without knowing what kind of generator sits
behind it.  Attack workloads additionally expose their flow labels and
attacker hosts so defense backends can arm themselves (mark detectors,
schedule manual responses, wire stop callbacks).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.attacks.flood import FloodAttack, SpoofedFloodAttack
from repro.attacks.legitimate import LegitimateTraffic, PoissonTraffic
from repro.core.messages import RequestRole
from repro.experiments.registry import WORKLOADS
from repro.net.flowlabel import FlowLabel
from repro.router.nodes import Host


class WorkloadHandle:
    """One built traffic source, attack or legitimate."""

    role = "attack"

    def __init__(self, kind: str, generator: Any, *, start_time: float) -> None:
        self.kind = kind
        self.generator = generator
        self.start_time = start_time

    def start(self) -> None:
        """Begin emitting (the generator schedules itself from its start
        time)."""
        self.generator.start()

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


class _SingleAttackHandle(WorkloadHandle):
    """An attack from one host with one (src, dst) flow label."""

    def __init__(self, kind: str, generator: Any, attacker: Host,
                 **kwargs: Any) -> None:
        super().__init__(kind, generator, **kwargs)
        self.attacker = attacker

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


def _generator_kwargs(ctx: Any, packet_size: int, start: float) -> Dict[str, Any]:
    """Generator kwargs every traffic source shares: packet size, start
    time and the experiment's engine selection.

    On the train engine every generator learns the aggregation bound and
    the run horizon (trains must not outlive the simulation, or the
    emitted-packet count would differ from per-packet emission); on the
    packet engine generators keep their default, ``max_train = 1``.
    """
    kwargs = {"packet_size": int(packet_size), "start_time": float(start)}
    engine = getattr(ctx, "engine", None)
    if engine is None or engine.mode != "train":
        return kwargs
    kwargs.update(max_train=engine.max_train, horizon=ctx.spec.duration)
    if engine.max_span is not None:
        kwargs["max_span"] = engine.max_span
    return kwargs


@WORKLOADS.register("flood")
def _build_flood(ctx: Any, index: int, *, rate_pps: float = 1000.0,
                 packet_size: int = 1000, start: float = 0.0,
                 duration: Optional[float] = None, attacker: int = 0,
                 spoofed: bool = False) -> WorkloadHandle:
    """Constant-rate flood from one attacker host."""
    host = _pick(ctx, "attacker", attacker)
    common = dict(rate_pps=float(rate_pps), duration=duration,
                  **_generator_kwargs(ctx, packet_size, start))
    if spoofed:
        attack = SpoofedFloodAttack(host, ctx.handle.victim.address,
                                    rng=ctx.rng.fork(f"spoof-{index}"), **common)
    else:
        attack = FloodAttack(host, ctx.handle.victim.address, **common)
    return _SingleAttackHandle("flood", attack, host, start_time=float(start))


@WORKLOADS.register("onoff")
def _build_onoff(ctx: Any, index: int, *, rate_pps: float = 1000.0,
                 packet_size: int = 1000, start: float = 0.0,
                 on_duration: Optional[float] = None,
                 off_duration: Optional[float] = None,
                 cycles: Optional[int] = None,
                 attacker: int = 0) -> WorkloadHandle:
    """Pulsed attack (Section II-B).  ``on_duration`` / ``off_duration``
    default to the attacker-optimal cadence derived from the run's Ttmp."""
    from repro.attacks.onoff import OnOffAttack

    host = _pick(ctx, "attacker", attacker)
    ttmp = ctx.config.temporary_filter_timeout
    attack = OnOffAttack(
        host, ctx.handle.victim.address,
        rate_pps=float(rate_pps),
        on_duration=float(on_duration) if on_duration is not None else ttmp * 0.5,
        off_duration=float(off_duration) if off_duration is not None else ttmp * 1.5,
        cycles=cycles,
        **_generator_kwargs(ctx, packet_size, start),
    )
    return _OnOffHandle("onoff", attack, host, start_time=float(start))


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


@WORKLOADS.register("legitimate")
def _build_legitimate(ctx: Any, index: int, *, rate_pps: float = 100.0,
                      packet_size: int = 1000, start: float = 0.0,
                      duration: Optional[float] = None, sender: int = 0,
                      poisson: bool = False) -> WorkloadHandle:
    """Well-behaved traffic toward the victim."""
    host = _pick(ctx, "sender", sender)
    common = dict(rate_pps=float(rate_pps), duration=duration,
                  **_generator_kwargs(ctx, packet_size, start))
    if poisson:
        traffic = PoissonTraffic(host, ctx.handle.victim.address,
                                 rng=ctx.rng.fork(f"poisson-{index}"), **common)
    else:
        traffic = LegitimateTraffic(host, ctx.handle.victim.address, **common)
    traffic.attach_receiver(ctx.handle.victim)
    handle = WorkloadHandle("legitimate", traffic, start_time=float(start))
    handle.role = "legit"
    return handle


@WORKLOADS.register("zombies")
def _build_zombies(ctx: Any, index: int, *, count: Optional[int] = None,
                   rate_pps: float = 200.0, packet_size: int = 1000,
                   start: float = 0.0, start_jitter: float = 0.0,
                   spoofed: bool = False,
                   duration: Optional[float] = None) -> WorkloadHandle:
    """A zombie army: ``count`` attacker hosts flooding the victim together."""
    from repro.attacks.zombies import ZombieArmy

    candidates = list(ctx.handle.attackers)
    if not candidates:
        raise ValueError(f"topology {ctx.handle.kind!r} has no attacker hosts")
    count = int(count) if count is not None else len(candidates)
    if count < 1 or count > len(candidates):
        raise ValueError(f"zombie count {count} out of range "
                         f"(topology offers {len(candidates)} attacker hosts)")
    zombies = candidates[:count]
    army = ZombieArmy(
        zombies, ctx.handle.victim.address,
        rate_pps_per_zombie=float(rate_pps),
        start_jitter=float(start_jitter),
        spoofed=bool(spoofed),
        duration=duration,
        rng=ctx.rng.fork(f"zombies-{index}"),
        **_generator_kwargs(ctx, packet_size, start),
    )
    return _ZombieHandle("zombies", army, zombies, start_time=float(start))


class _ZombieHandle(WorkloadHandle):
    #: Every ZombieArmy packet carries this tag; the runner meters by it.
    flow_tag = "zombie-attack"

    def __init__(self, kind: str, army: Any, zombies: List[Host],
                 **kwargs: Any) -> None:
        super().__init__(kind, army, **kwargs)
        self._zombies = list(zombies)

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


class _RequestStream:
    """Control-plane load: one request every ``1 / rate`` seconds from
    ``start_time`` for ``duration`` (None = to the experiment horizon),
    all scheduled up front (the golden recordings' order)."""

    #: The workload kind, for error messages.
    kind = ""
    #: The simulator event name of each request.
    event_name = ""

    def __init__(self, ctx: Any, *, rate: float, duration: Any = None,
                 start_time: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"{self.kind} rate must be positive")
        self.ctx = ctx
        self.rate = rate
        self.duration = duration
        self.start_time = start_time

    @property
    def offered_rate_bps(self) -> float:
        # Control-plane load, not data traffic.
        return 0.0

    def start(self) -> None:
        interval = 1.0 / self.rate
        duration = (self.duration if self.duration is not None
                    else self.ctx.spec.duration - self.start_time)
        count = int(duration * self.rate)
        sim = self.ctx.sim
        for index in range(count):
            sim.call_at(self.start_time + index * interval,
                        self._send_one, name=self.event_name)

    def _send_one(self) -> None:
        raise NotImplementedError


class FilterRequestStream(_RequestStream):
    """Synthetic filtering-request load (the E2–E5 resource experiments).

    The victim requests a block against a fresh undesired flow at a fixed
    rate: sources rotate over every non-victim end host and the destination
    port rotates so each request occupies its own filter slot — exactly the
    load the paper's provisioning formulas (nv, mv, Nv, na) are written in
    terms of, without simulating thousands of literal zombies.
    """

    kind = "filter-requests"
    event_name = "synthetic-request"

    def __init__(self, ctx: Any, *, rate: float, duration: Any = None,
                 start_time: float = 0.0) -> None:
        super().__init__(ctx, rate=rate, duration=duration,
                         start_time=start_time)
        self.requests_sent = 0
        handle = ctx.handle
        self._victim = handle.victim
        self._pool = [*handle.attackers, *handle.legit_senders]
        if not self._pool:
            raise ValueError(
                f"topology {handle.kind!r} has no non-victim end hosts to "
                "synthesise undesired flows from")

    def start(self) -> None:
        deployment = getattr(self.ctx.backend, "deployment", None)
        if deployment is None or not hasattr(deployment, "host_agent"):
            raise ValueError(
                "the filter-requests workload needs the 'aitf' defense "
                f"backend (got {self.ctx.spec.defense.backend!r})")
        self._victim_agent = deployment.host_agent(self._victim.name)
        super().start()

    def _send_one(self) -> None:
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

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["requests_sent"] = self.generator.requests_sent
        stats["rate"] = self.generator.rate
        return stats


@WORKLOADS.register("filter-requests")
def _build_filter_requests(ctx: Any, index: int, *,
                           rate: Optional[float] = None, start: float = 0.0,
                           duration: Optional[float] = None) -> WorkloadHandle:
    """Filtering requests from the victim at rate R (Sections IV-A.2–IV-D).
    Requires the ``aitf`` backend."""
    start = float(start)
    stream = FilterRequestStream(
        ctx, rate=float(rate if rate is not None else ctx.config.default_send_rate),
        duration=float(duration) if duration is not None else None,
        start_time=start,
    )
    return _FilterRequestHandle("filter-requests", stream, start_time=start)


class ForgedRequestStream(_RequestStream):
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

    kind = "forged-requests"
    event_name = "forged-request"

    def __init__(self, ctx: Any, forger_host: Host, *, rate: float,
                 duration: Any = None, start_time: float = 0.0,
                 spoofed: bool = False) -> None:
        super().__init__(ctx, rate=rate, duration=duration,
                         start_time=start_time)
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
        from repro.attacks.malicious import RequestForger

        self.forger = RequestForger(forger_host, spoof_source=spoof_source)

    @property
    def requests_sent(self) -> int:
        return self.forger.requests_sent

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

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["spoofed"] = self.generator.spoofed
        return stats


@WORKLOADS.register("forged-requests")
def _build_forged_requests(ctx: Any, index: int, *, rate: float = 50.0,
                           start: float = 0.0, duration: Optional[float] = None,
                           forger: int = 0,
                           spoofed: bool = False) -> WorkloadHandle:
    """Forged filtering-request storm against the victim's gateway
    (Section III-B).  The forger must be a client of the victim's gateway
    for its requests to pass the victim-side check; spoofed requests carry
    a source the forger does not own, and the gateway rejects them."""
    start = float(start)
    stream = ForgedRequestStream(
        ctx, _pick(ctx, "forger", forger), rate=float(rate),
        duration=float(duration) if duration is not None else None,
        start_time=start,
        spoofed=bool(spoofed),
    )
    return _ForgedRequestHandle("forged-requests", stream, start_time=start)


def _pick(ctx: Any, key: str, index: int) -> Host:
    """Host ``index`` among the topology's attacker candidates (``key`` is
    ``attacker``) or its legitimate senders (``sender``, ``forger``)."""
    handle = ctx.handle
    if key == "attacker":
        candidates, missing = handle.attackers, "attacker hosts"
    else:
        candidates, missing = handle.legit_senders, (
            "legitimate-sender hosts "
            "(e.g. build figure1 with extra_good_hosts >= 1)")
    if not candidates:
        raise ValueError(f"topology {handle.kind!r} has no {missing}")
    index = int(index)
    if not 0 <= index < len(candidates):
        raise ValueError(f"{key} index {index} out of range "
                         f"(topology offers {len(candidates)})")
    return candidates[index]


def build_workload(ctx: Any, index: int, kind: str,
                   params: Mapping[str, Any]) -> WorkloadHandle:
    """Resolve ``kind`` in the registry and build the handle."""
    return WORKLOADS.get(kind)(ctx, index, **params)
