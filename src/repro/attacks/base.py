"""The one emission path every constant-spacing generator shares.

A traffic source builds one template packet per flow, clones it per emission
and hands it to its host — as a lone packet per tick, or as one
:class:`~repro.net.train.PacketTrain` per wakeup when the experiment's
engine aggregates (``max_train > 1``).  :class:`TrafficSource` owns that
path, its sent / suppressed / offered accounting and the choice of tick
scheduler; the generators in this package add only what makes them
different (headers, duty cycles, arrival draws).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.net.packet import Packet
from repro.net.train import PacketTrain
from repro.router.nodes import Host
from repro.sim.process import BatchedProcess, TrainProcess


class TrafficSource:
    """``rate_pps`` packets a second from ``host``, lone or in trains.

    ``max_train`` is the engine selection: 1 (the default) emits one packet
    per tick; a larger bound emits one train of up to that many ticks per
    wakeup, clipped by ``max_span`` seconds and by the run ``horizon``
    (trains must not outlive the simulation, or the emitted-packet count
    would differ from per-packet emission).  Tick *times* are the same
    float recurrence either way.
    """

    def __init__(self, host: Host, name: str, *, rate_pps: float,
                 packet_size: int, start_delay: float = 0.0,
                 max_train: int = 1, max_span: Optional[float] = None,
                 horizon: Optional[float] = None) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.rate_pps = rate_pps
        self.packet_size = packet_size
        #: Packets that left the host / were stopped at it (outbound filter,
        #: no route, first-hop tail drop).
        self.packets_sent = 0
        self.packets_suppressed = 0
        self._interval = 1.0 / rate_pps
        self._max_train = max_train
        self._max_span = max_span
        self._horizon = horizon
        self._template: Optional[Packet] = None
        self._send = host.send  # bound once; this fires per packet
        # The tick scheduler — the one place the engine difference lives:
        # one heap entry per tick, or one per train.
        self._process: Union[BatchedProcess, TrainProcess]
        if max_train > 1:
            self._process = TrainProcess(
                host.sim, self._interval, self._emit, start_delay=start_delay,
                max_train=max_train, max_span=max_span, horizon=horizon,
                name=name)
        else:
            self._process = BatchedProcess(
                host.sim, self._interval, self._emit, start_delay=start_delay,
                name=name)

    def _stop_emitting_at(self, when: float) -> None:
        """Bound emission by a stop the caller has scheduled for ``when``.

        A tick process is silenced by the stop event itself.  Trains cannot
        be retracted, so for them the stop is also a hard, *exclusive*
        emission bound — matching per-packet emission, where the stop event
        wins the tie against a same-time tick.
        """
        if self._max_train > 1:
            self._process.limit_until = when

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def packets_offered(self) -> int:
        """Packets the generator tried to send, including suppressed ones."""
        return self.packets_sent + self.packets_suppressed

    @property
    def offered_rate_bps(self) -> float:
        """Offered load while emitting, in bits per second."""
        return self.rate_pps * self.packet_size * 8

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(self, count: Optional[int] = None,
              interval: Optional[float] = None) -> None:
        """One tick (no arguments: a lone packet) or one train of ``count``
        packets ``interval`` apart (default: the generator's fixed spacing).

        A one-tick train stays a train: which form leaves the host is the
        scheduler's decision, never the count's.
        """
        template = self._template
        # Inline the common template-clone case; _next_packet stays the
        # override point for variants with per-emission headers.
        packet = template.clone() if template is not None else self._next_packet()
        if count is None:
            if self._send(packet):  # send() stamps created_at
                self.packets_sent += 1
            else:
                self.packets_suppressed += 1
            return
        train = PacketTrain(packet, count,
                            self._interval if interval is None else interval)
        # The first-hop pipe shrinks train.count in place when its queue
        # tail-drops part of the train, so sent/suppressed split exactly as
        # per-packet emission's per-send booleans would have split them.
        sent = train.count if self._send(packet, count, train) else 0
        self.packets_sent += sent
        self.packets_suppressed += count - sent

    def _next_packet(self) -> Packet:
        """The per-emission packet: a clone of the flow's cached template.

        Subclasses whose packets differ per emission (spoofed sources)
        override this; subclasses whose headers change over time (protocol
        switching) invalidate :attr:`_template` instead.
        """
        template = self._template
        if template is None:
            template = self._template = self._build_packet()
        return template.clone()

    def _build_packet(self) -> Packet:
        """The flow's header template; every generator defines its own."""
        raise NotImplementedError
