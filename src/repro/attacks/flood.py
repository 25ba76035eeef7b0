"""Flooding attacks.

The basic DoS workload of the paper: a zombie sends a constant-rate packet
flood at the victim, far exceeding the victim's tail-circuit capacity, so the
access queue overflows and legitimate traffic is drowned (Section I).

Variants:

* :class:`FloodAttack` — plain constant-bit-rate flood with the zombie's real
  source address.
* :class:`SpoofedFloodAttack` — each packet carries a forged source address
  (random, or from a configured pool), which is what ingress filtering and
  the 3-way handshake have to cope with.
* :class:`ProtocolSwitchingAttack` — the flood rotates protocol and port on a
  schedule, so every incarnation looks like a new flow and needs a new
  filtering request (the "sophisticated attacker" of Section I).

All generators respect filtering requests only indirectly: a *cooperative*
attacking host's AITF agent installs an outbound filter, and the generator's
packets are then dropped by the host's outbound guard.  The generator also
exposes :meth:`stop_flow_callback` so a scenario can register it with the
host agent, in which case a stop request pauses the generator outright
(modelling a well-behaved sender that genuinely stops).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.attacks.base import TrafficSource
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, Protocol
from repro.router.nodes import Host
from repro.sim.process import PeriodicProcess
from repro.sim.randomness import SeededRandom, stable_seed


class FloodAttack(TrafficSource):
    """A constant-rate flood from one host toward one victim address.

    Emission is :class:`~repro.attacks.base.TrafficSource`'s: batched
    per-packet ticks by default, one :class:`~repro.net.train.PacketTrain`
    of up to ``max_train`` packets per wakeup when the experiment's engine
    aggregates (``engine.mode = "train"``), each packet cloned from a
    prebuilt template rather than reconstructed field by field.
    """

    def __init__(
        self,
        attacker: Host,
        victim: Union[str, IPAddress],
        *,
        rate_pps: float = 1000.0,
        packet_size: int = 1000,
        protocol: str = Protocol.UDP.value,
        dst_port: Optional[int] = 80,
        start_time: float = 0.0,
        duration: Optional[float] = None,
        flow_tag: str = "attack",
        max_train: int = 1,
        max_span: Optional[float] = None,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__(attacker, f"flood-{attacker.name}", rate_pps=rate_pps,
                         packet_size=packet_size, start_delay=start_time,
                         max_train=max_train, max_span=max_span, horizon=horizon)
        self.attacker = attacker
        self.victim = IPAddress.parse(victim)
        self.protocol = protocol
        self.dst_port = dst_port
        self.start_time = start_time
        self.duration = duration
        self.flow_tag = flow_tag
        self._stopped_labels: List[FlowLabel] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FloodAttack":
        """Begin flooding at ``start_time``; returns self for chaining."""
        self._process.start()
        if self.duration is not None:
            end = self.start_time + self.duration
            self._stop_emitting_at(end)
            self.attacker.sim.schedule(end, self.stop, name="flood-end")
        return self

    def stop(self) -> None:
        """Stop flooding (the attack is over, or the zombie was told to stop)."""
        self._process.stop()

    @property
    def active(self) -> bool:
        """True while the generator is scheduled to emit packets."""
        return self._process.running

    # ------------------------------------------------------------------
    # AITF cooperation hook
    # ------------------------------------------------------------------
    def stop_flow_callback(self, label: FlowLabel) -> bool:
        """Stop generating if our flow matches ``label`` (register with HostAgent)."""
        probe = self._build_packet()
        if label.matches(probe):
            self._stopped_labels.append(label)
            self.stop()
            return True
        return False

    def _build_packet(self) -> Packet:
        return Packet.data(
            src=self.attacker.address,
            dst=self.victim,
            protocol=self.protocol,
            dst_port=self.dst_port,
            size=self.packet_size,
            flow_tag=self.flow_tag,
        )

    @property
    def flow_label(self) -> FlowLabel:
        """The label a victim would use to block this flood."""
        return FlowLabel.between(self.attacker.address, self.victim)


class SpoofedFloodAttack(FloodAttack):
    """A flood whose packets carry forged source addresses.

    Every *emission* draws a fresh source: per packet by default, once per
    train when the engine aggregates — all packets of one train share a
    spoofed source, so the flood still rotates sources (from the same
    seeded stream) while staying aggregable, and ingress filtering and the
    handshake see the same per-source dynamics at train granularity.
    Packet counts are identical across engines (pinned by the
    emission-parity tests); the source *sequence* is coarser by design.
    """

    def __init__(
        self,
        attacker: Host,
        victim: Union[str, IPAddress],
        *,
        spoof_pool: Optional[Sequence[Union[str, IPAddress]]] = None,
        rng: Optional[SeededRandom] = None,
        **kwargs,
    ) -> None:
        super().__init__(attacker, victim, **kwargs)
        self._rng = rng or SeededRandom(stable_seed("spoof", attacker.name),
                                        name=f"spoof-{attacker.name}")
        self._spoof_pool = [IPAddress.parse(a) for a in spoof_pool] if spoof_pool else []

    def _next_packet(self) -> Packet:
        # Every emission carries a freshly drawn source, so there is no
        # reusable template for this variant.
        return self._build_packet()

    def _build_packet(self) -> Packet:
        claimed = self._pick_spoofed_source()
        return Packet.data(
            src=claimed,
            dst=self.victim,
            protocol=self.protocol,
            dst_port=self.dst_port,
            size=self.packet_size,
            flow_tag=self.flow_tag,
            spoofed_src=self.attacker.address,
        )

    def _pick_spoofed_source(self) -> IPAddress:
        if self._spoof_pool:
            return self._rng.choice(self._spoof_pool)
        return IPAddress(self._rng.randint(1, (1 << 32) - 2))


class ProtocolSwitchingAttack(FloodAttack):
    """A flood that changes protocol/port every ``switch_interval`` seconds.

    Each incarnation is a distinct flow label, so the victim has to issue a
    new filtering request per switch — the workload the contract rate R1 and
    the filter-table sizing formulas have to absorb.
    """

    VARIANTS = (
        (Protocol.UDP.value, 53),
        (Protocol.UDP.value, 123),
        (Protocol.TCP.value, 80),
        (Protocol.TCP.value, 443),
        (Protocol.ICMP.value, None),
    )

    def __init__(self, attacker: Host, victim: Union[str, IPAddress],
                 *, switch_interval: float = 2.0, **kwargs) -> None:
        # Headers change on a schedule, so a train spanning a switch boundary
        # would carry the previous incarnation's label past the switch —
        # exactly the per-incarnation dynamics this attack exists to model.
        # Per-packet emission keeps every switch instantaneous.
        kwargs["max_train"] = 1
        super().__init__(attacker, victim, **kwargs)
        if switch_interval <= 0:
            raise ValueError("switch_interval must be positive")
        self.switch_interval = switch_interval
        self.switches = 0
        self._variant_index = 0
        self._switcher = PeriodicProcess(
            attacker.sim, switch_interval, self._switch,
            start_delay=self.start_time + switch_interval,
            name=f"protocol-switch-{attacker.name}",
        )

    def start(self) -> "ProtocolSwitchingAttack":
        super().start()
        self._switcher.start()
        return self

    def stop(self) -> None:
        super().stop()
        self._switcher.stop()

    def stop_flow_callback(self, label: FlowLabel) -> bool:
        """Only the *current* incarnation stops; the next switch evades the filter."""
        probe = self._build_packet()
        if label.matches(probe):
            self._stopped_labels.append(label)
            return True
        return False

    def _switch(self) -> None:
        self._variant_index = (self._variant_index + 1) % len(self.VARIANTS)
        self.switches += 1
        self.protocol, self.dst_port = self.VARIANTS[self._variant_index]
        self._template = None  # headers changed; next emission rebuilds it
        # Restart emission if a per-incarnation filter paused the previous flow.
        if not self._process.running:
            self._process.start()

    @property
    def current_label(self) -> FlowLabel:
        """The label of the current incarnation (protocol and port included)."""
        return FlowLabel.between(self.attacker.address, self.victim,
                                 protocol=self.protocol, dst_port=self.dst_port)
