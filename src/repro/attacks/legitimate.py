"""Legitimate traffic.

The whole point of defending against DoS is to preserve the goodput of
*legitimate* clients sharing the victim's tail circuit (Section I's 10 Mbps
enterprise example).  These generators produce that traffic and account for
how much of it actually arrived, so the goodput experiments (E9, E11) can
report the number the paper's argument is really about.

* :class:`LegitimateTraffic` — constant-bit-rate traffic (e.g. a steady
  customer workload).
* :class:`PoissonTraffic` — Poisson packet arrivals, a better model for many
  independent small clients aggregated onto one link.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.attacks.base import TrafficSource
from repro.net.address import IPAddress
from repro.net.packet import Packet, Protocol
from repro.router.nodes import Host
from repro.sim.randomness import SeededRandom, stable_seed


class LegitimateTraffic(TrafficSource):
    """Constant-rate traffic from one well-behaved host to a destination.

    Emits through the same :class:`~repro.attacks.base.TrafficSource` path as
    the attack generators: constant rate and a fixed template make the flow
    perfectly homogeneous, so under an aggregating engine one
    :class:`~repro.net.train.PacketTrain` per wakeup carries the goodput
    workload.
    """

    def __init__(
        self,
        sender: Host,
        destination: Union[str, IPAddress],
        *,
        rate_pps: float = 100.0,
        packet_size: int = 1000,
        protocol: str = Protocol.TCP.value,
        dst_port: int = 443,
        start_time: float = 0.0,
        duration: Optional[float] = None,
        max_train: int = 1,
        max_span: Optional[float] = None,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__(sender, rate_pps=rate_pps,
                         packet_size=packet_size, start_time=start_time,
                         duration=duration, max_train=max_train,
                         max_span=max_span, horizon=horizon)
        self.sender = sender
        self.destination = IPAddress.parse(destination)
        self.protocol = protocol
        self.dst_port = dst_port
        self.packets_received = 0
        self.bytes_received = 0
        self._receiver_hooked = False
        self._flow_tag = f"legit-{sender.name}"

    def attach_receiver(self, receiver: Host) -> None:
        """Count deliveries at the destination host (for goodput accounting)."""
        if self._receiver_hooked:
            return
        self._receiver_hooked = True
        receiver.on_receive(self._count_delivery)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def delivery_ratio(self) -> float:
        """Fraction of *offered* packets that reached the destination.

        Offered (not merely sent) is the honest denominator: a flow that is
        blackholed by a forged filter at its own host never even makes it onto
        the wire, and that loss must show up here.
        """
        if self.packets_offered == 0:
            return 0.0
        return self.packets_received / self.packets_offered

    def goodput_bps(self, elapsed: float) -> float:
        """Received payload rate over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return (self.bytes_received * 8) / elapsed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_packet(self) -> Packet:
        return Packet.data(
            src=self.sender.address,
            dst=self.destination,
            protocol=self.protocol,
            dst_port=self.dst_port,
            size=self.packet_size,
            flow_tag=self._flow_tag,
        )

    def _count_delivery(self, packet: Packet, train=None) -> None:
        if packet.flow_tag == self._flow_tag:
            count = 1 if train is None else train.count
            self.packets_received += count
            self.bytes_received += count * packet.size


class PoissonTraffic(LegitimateTraffic):
    """Legitimate traffic with exponentially distributed inter-arrivals.

    The generator keeps its own self-rescheduling wakeup (the inherited
    fixed-interval scheduler is never started): each wakeup draws
    inter-arrival gaps from the seeded stream —
    one draw per packet, in the same order whatever ``max_train`` is — and
    packs the accepted gaps into one :class:`~repro.net.train.PacketTrain`
    whose span equals the drawn arrival span (interval = mean drawn gap).
    Accumulation stops at ``max_train`` packets (so the default, 1, is plain
    per-packet Poisson emission), when the span would exceed ``max_span``,
    or when the next arrival would land at/after the end of the flow; the
    rejected draw becomes the next wakeup time, so its packet opens the next
    train.  Emission *counts* are therefore bit-identical across engines
    (pinned by the emission-parity tests); only intra-train spacing is
    smoothed.
    """

    def __init__(self, sender: Host, destination: Union[str, IPAddress],
                 *, rng: Optional[SeededRandom] = None, **kwargs) -> None:
        super().__init__(sender, destination, **kwargs)
        self._rng = rng or SeededRandom(stable_seed("poisson", sender.name),
                                        name=f"poisson-{sender.name}")
        self._running = False

    def start(self) -> "PoissonTraffic":
        self._running = True
        self.sender.sim.call_at(self.start_time, self._wakeup)
        if self.duration is not None:
            self.sender.sim.call_at(self.start_time + self.duration, self.stop)
        return self

    def stop(self) -> None:
        self._running = False

    def _wakeup(self) -> None:
        """One wakeup, one emission: a lone packet or an aggregated train.

        The packet that triggered this wakeup is offset 0; every accepted
        gap extends the train; the first rejected gap schedules the next
        wakeup (so every drawn gap is consumed exactly once, whatever the
        aggregation bound).  The end-of-flow stop event wins a same-time
        tie (strict ``<`` against the limit), while the simulation horizon
        is inclusive (``sim.run(until)`` fires events at exactly ``until``).
        """
        if not self._running:
            return
        sim = self.sender.sim
        now = sim.now
        limit = None if self.duration is None else self.start_time + self.duration
        max_span = self._max_span
        horizon = self._horizon
        count = 1
        offset = 0.0
        while True:
            gap = self._rng.expovariate(self.rate_pps)
            candidate = offset + gap
            if (count >= self._max_train
                    or (max_span is not None and candidate > max_span)
                    or (limit is not None and now + candidate >= limit)
                    or (horizon is not None and now + candidate > horizon)):
                break
            offset = candidate
            count += 1
        if count == 1:
            self._emit_packet()
        else:
            self._emit(count, offset / (count - 1))
        # A drawn gap is never negative: no past-time check to pay for.
        sim.schedule_fire(candidate, self._wakeup)
