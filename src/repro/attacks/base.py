"""The one emission path every constant-spacing generator shares.

A traffic source builds one template packet per flow, clones it per emission
and hands it to its host — as a lone packet per tick, or as one
:class:`~repro.net.train.PacketTrain` per wakeup when the experiment's
engine aggregates (``max_train > 1``).  :class:`TrafficSource` owns that
path, its sent / suppressed / offered accounting, its one tick process (a
:class:`~repro.sim.process.TrainProcess` on either engine) and the
``start_time`` / ``duration`` emission window; the generators in this
package add only what makes them different (headers, duty cycles, arrival
draws).
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.net.train import PacketTrain
from repro.router.nodes import Host
from repro.sim.process import TrainProcess


class TrafficSource:
    """``rate_pps`` packets a second from ``host``, lone or in trains.

    ``max_train`` is the engine selection: 1 (the default) emits one packet
    per tick; a larger bound emits one train of up to that many ticks per
    wakeup, clipped by ``max_span`` seconds.  Either way the run
    ``horizon`` ends emission (trains must not outlive the simulation, or
    the emitted-packet count would differ from per-packet emission), and
    tick *times* are the same float recurrence: one
    :class:`~repro.sim.process.TrainProcess` ticks every engine.

    :meth:`start` emits from ``start_time`` for ``duration`` seconds (None:
    until the run ends); a bad size or window is refused here, when the
    source is built, not by the simulator once the run is under way.
    """

    def __init__(self, host: Host, *, rate_pps: float,
                 packet_size: int, start_time: float = 0.0,
                 duration: Optional[float] = None,
                 max_train: int = 1, max_span: Optional[float] = None,
                 horizon: Optional[float] = None) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if packet_size <= 0:
            raise ValueError(f"packet_size must be positive, got {packet_size}")
        if start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        if duration is not None and duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.rate_pps = rate_pps
        self.packet_size = packet_size
        self.start_time = start_time
        self.duration = duration
        #: Packets that left the host / were stopped at it (outbound filter,
        #: no route, first-hop tail drop).
        self.packets_sent = 0
        self.packets_suppressed = 0
        self._interval = 1.0 / rate_pps
        self._max_train = max_train
        self._max_span = max_span
        self._horizon = horizon
        self._template: Optional[Packet] = None
        self._sim = host.sim
        self._send = host.send  # bound once; this fires per packet
        self._process = TrainProcess(
            host.sim, self._interval, self._emit, start_delay=start_time,
            max_train=max_train, max_span=max_span, horizon=horizon)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TrafficSource":
        """Begin emitting at ``start_time``; returns self for chaining."""
        self._process.start()
        if self.duration is not None:
            end = self.start_time + self.duration
            self._stop_emitting_at(end)
            self._sim.call_at(end, self.stop)
        return self

    def stop(self) -> None:
        """Stop emitting (the flow is over, or its host was told to stop)."""
        self._process.stop()

    def _stop_emitting_at(self, when: float) -> None:
        """Bound emission by a stop the caller has scheduled for ``when``.

        Trains cannot be retracted, so the stop is also a hard, *exclusive*
        emission bound on the tick process — the stop event wins the tie
        against a same-time tick.
        """
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
    def _emit(self, count: int, interval: Optional[float] = None) -> None:
        """The ``count`` ticks due now — the tick process's callback.

        At ``max_train`` 1 (the per-packet engine) that is one lone packet;
        otherwise one train of ``count`` packets ``interval`` apart
        (default: the generator's fixed spacing).  A one-tick train stays a
        train: which form leaves the host is the engine's decision, never
        the count's.
        """
        template = self._template
        # Inline the common template-clone case; _next_packet stays the
        # override point for variants with per-emission headers.
        packet = template.clone() if template is not None else self._next_packet()
        if self._max_train == 1:
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

    def _emit_packet(self) -> None:
        """One lone packet on either engine: a single draw of an arrival
        process that schedules itself."""
        sent = self._send(self._next_packet())
        self.packets_sent += sent
        self.packets_suppressed += 1 - sent

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
