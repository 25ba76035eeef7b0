"""Point-to-point links with bandwidth, propagation delay and finite queues.

A :class:`Link` joins two nodes (anything exposing ``name`` and
``receive_packet(packet, link)``) with one independent transmission pipe per
direction.  Each pipe serializes packets at the configured bandwidth, applies
the propagation delay, and drops on queue overflow — which is exactly how a
flood saturates the victim's tail circuit.  A delivery event calls the
receiver itself, and the receiver counts the arrival on the pipe
(:meth:`Link.arrived`).

Congestion is therefore an emergent property of the simulation, not a modeled
abstraction: the benchmarks that show legitimate goodput collapsing under
attack (experiment E11) rely on nothing more than these pipes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from heapq import heappush
from typing import Optional, Protocol as TypingProtocol

from repro.net.packet import Packet, PacketKind
from repro.net.queues import DropTailQueue
from repro.net.train import PacketTrain
from repro.sim.engine import Simulator


class PacketSink(TypingProtocol):
    """Anything that can terminate a link: hosts, routers."""

    name: str

    def receive_packet(self, packet: Packet, link: "Link") -> None:
        """Handle a packet arriving over ``link``, counting it with
        ``link.arrived(self, packet)`` (the nodes inline that count)."""
        ...  # pragma: no cover - protocol definition


@dataclass(slots=True)
class LinkStats:
    """Per-direction transmission counters."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    #: Subset of ``packets_dropped`` lost to the link being administratively
    #: down (fault injection): sends while down plus queued packets flushed
    #: at the moment the link failed.
    packets_dropped_down: int = 0
    bytes_delivered: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float, bandwidth_bps: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds."""
        if elapsed <= 0 or bandwidth_bps <= 0:
            return 0.0
        return min(1.0, (self.bytes_delivered * 8) / (bandwidth_bps * elapsed))


class _LiveLinkStats(LinkStats):
    """A pipe's :class:`LinkStats`, read live off its counters.

    The pipe counts in ``_counts`` what it sends other than across an idle
    queue, and what it drops; each receiver counts its arrivals there too.
    A packet that crossed the idle queue is recorded once, on the queue
    (see :class:`~repro.net.queues.DropTailQueue`), so ``packets_sent``
    and ``busy_time`` are worked out here, when read.
    """

    __slots__ = ("_pipe",)

    def __init__(self, pipe: "_Pipe") -> None:
        self._pipe = pipe

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkStats):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(LinkStats))

    @property
    def packets_sent(self) -> int:
        pipe = self._pipe
        return pipe._counts.packets_sent + pipe._queue._passed

    @property
    def busy_time(self) -> float:
        # Every byte the serializer started on: the idle crossings and the
        # queue's admissions, less what a flush discarded or still waits.
        pipe = self._pipe
        queue = pipe._queue
        own = queue._own
        started = (queue._bytes_passed + own.bytes_enqueued
                   - own.bytes_flushed - queue._bytes)
        return (started * 8) / pipe._bandwidth

    packets_delivered = property(
        lambda self: self._pipe._counts.packets_delivered)
    packets_dropped = property(lambda self: self._pipe._counts.packets_dropped)
    packets_dropped_down = property(
        lambda self: self._pipe._counts.packets_dropped_down)
    bytes_delivered = property(lambda self: self._pipe._counts.bytes_delivered)


class _Tap:
    """What a tapped pipe delivers to: the sink's name, and the tap's
    wrapper as the ``receive_packet`` a delivery event calls."""

    __slots__ = ("name", "receive_packet")

    def __init__(self, name: str, receive_packet) -> None:
        self.name = name
        self.receive_packet = receive_packet


#: The entry points ``_Pipe._rebind`` may override per instance.
_ENTRY_POINTS = ("send", "send_train", "_deliver_train")


class _Pipe:
    """One direction of a link: queue -> serializer -> propagation -> sink.

    The serializer is lazy: an idle pipe transmits immediately and schedules
    only the delivery event; the queue-drain wakeup exists only while
    packets are actually waiting.  An uncongested hop therefore costs one
    simulator event per packet instead of two, and both event kinds ride
    the fire-and-forget scheduling path (no cancellable event objects).

    A delivery event is ``(time, seq, sink.receive_packet, packet,
    link)``: it calls the receiver directly, and the receiver counts the
    arrival (:meth:`Link.arrived`).  ``receive_packet`` is read when the
    packet is sent, so one replaced on the sink's instance takes effect.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: PacketSink,
        bandwidth_bps: float,
        delay: float,
        queue: DropTailQueue,
        link: "Link",
    ) -> None:
        self._sim = sim
        self._node = sink
        #: What a delivery event calls ``receive_packet`` on: the node, or
        #: the outermost of the link's taps (see :meth:`_rebind`).
        self._sink = sink
        self._bandwidth = bandwidth_bps
        self._delay = delay
        self._queue = queue
        self._link = link
        #: Absolute time at which the serializer frees up.
        self._busy_until = -1.0
        #: True while a drain wakeup is pending for queued packets.
        self._drain_pending = False
        #: Everything but the idle crossings (which the queue records) and
        #: ``busy_time``: sends, drops, and the receiver's arrivals.
        self._counts = LinkStats()
        self.stats: LinkStats = _LiveLinkStats(self)
        # Idle-path caches: these never change after construction.
        self._qstats = queue._own
        self._cap_bytes = queue.capacity_bytes
        self._zero_packet_cap = queue.capacity_packets == 0
        # Train-mode (fluid) state; inert until enable_train_mode() flips
        # the pipe over.  See _fluid_send_train for the model.
        self._train_mode = False
        # Link.__init__ guarantees bandwidth_bps > 0; both serializers and
        # the fluid paths divide by it, so the invariant is load-bearing.
        self._srate = bandwidth_bps / 8.0
        self._fl_rate = 0.0   # offered inflow from active trains, bytes/sec
        self._fl_q = 0.0      # fluid queue level, bytes
        self._fl_t = 0.0      # time of the last fluid-state update
        self._fl_adm = 0.0    # fair-share admission credit for single packets
        # Swappable state: train mode (above), admin down and the link's
        # taps (``Link._taps``).  ``_down_at`` is the simulation time the
        # pipe went down (None while up).  These three are the whole input
        # of _rebind(), which alone decides what send / send_train /
        # _deliver_train resolve to and what ``_sink`` is.
        # ``_fl_gen`` invalidates in-flight _fl_release events when a fault
        # resets the fluid state; it stays 0 on fault-free runs.
        self._down_at: Optional[float] = None
        self._fl_gen = 0

    @property
    def queue(self) -> DropTailQueue:
        return self._queue

    def send(self, packet: Packet) -> bool:
        """Offer a packet to this direction; False means it was dropped."""
        sim = self._sim
        now = sim._now
        if self._busy_until <= now and not self._drain_pending:
            # Idle pipe with nothing waiting: skip the queue and serialize
            # right away.  The drain-pending check matters at the exact
            # serializer-free instant: a packet arriving at t == busy_until
            # while others are still queued must line up behind them, not
            # overtake on the bypass.  The packet and its bytes are recorded
            # once, on the queue; the sent, queue and busy-time counters of
            # the instantaneous pass-through are worked out when read.
            size = packet.size
            queue = self._queue
            if size > self._cap_bytes or self._zero_packet_cap:
                qstats = self._qstats
                qstats.dropped += 1
                qstats.bytes_dropped += size
                counts = self._counts
                counts.packets_sent += 1
                counts.packets_dropped += 1
                return False
            queue._passed += 1
            queue._bytes_passed += size
            if queue._largest_passed < size:
                queue._largest_passed = size
            tx_time = (size * 8) / self._bandwidth
            self._busy_until = now + tx_time
            # Simulator.schedule_fire, inlined: the delivery is this hop's
            # one event, and the entry must read exactly what that call
            # would push, ``now + (tx_time + delay)`` included.
            heappush(sim._heap, (now + (tx_time + self._delay), next(sim._seq),
                                 self._sink.receive_packet, packet, self._link))
            return True
        stats = self._counts
        stats.packets_sent += 1
        queue = self._queue
        # A full data queue must not silence the control channel: AITF
        # messages are rare and tiny, and a router forwards them with
        # priority (the fluid path applies the same exemption).
        if packet.kind is not PacketKind.DATA and queue.would_drop(packet):
            queue.enqueue_priority(packet)
        elif not queue.enqueue(packet):
            stats.packets_dropped += 1
            return False
        if not self._drain_pending:
            self._drain_pending = True
            sim.schedule_fire(self._busy_until - now, self._drain)
        return True

    def _drain(self) -> None:
        """Serializer wakeup: start transmitting the queue head."""
        self._drain_pending = False
        packet = self._queue.dequeue()
        if packet is None:
            return
        tx_time = (packet.size * 8) / self._bandwidth
        sim = self._sim
        self._busy_until = sim._now + tx_time
        sim.schedule_fire(tx_time + self._delay, self._sink.receive_packet,
                          packet, self._link)
        if not self._queue.is_empty:
            self._drain_pending = True
            sim.schedule_fire(tx_time, self._drain)

    def _rebind(self) -> None:
        """Derive every swappable entry point, and ``_sink``, from the
        pipe's state.

        The one dispatch point: mode x up/down x tapped.  Only the state
        setters (``enable_train_mode``, ``set_down``, ``set_up`` and
        ``Link.tap``) call it, never a packet, and an entry point whose
        state is at its default keeps *no* instance attribute — the class
        method is reached directly, so an idle, untapped, per-packet pipe
        pays exactly zero.

        Overrides are set and deleted as plain attributes, never through
        ``self.__dict__``: reading that materialises the instance dict,
        after which CPython 3.11+ reads every attribute of the pipe the
        slow way, on every packet.
        """
        for name in _ENTRY_POINTS:
            try:
                delattr(self, name)
            except AttributeError:
                pass
        # From here on ``self.<name>`` is the class's own bound method.
        if self._down_at is not None:
            self.send = self._send_down
            self.send_train = self._send_train_down
        elif self._train_mode:
            self.send = self._fluid_send_packet
        # Taps wrap the receiver and the train delivery (see Link.tap); a
        # later tap wraps an earlier one.
        link = self._link
        node = sink = self._node
        deliver_train = None
        for wrap_packet, wrap_train in link._taps:
            if wrap_packet is not None:
                sink = _Tap(node.name, wrap_packet(link, sink))
            if wrap_train is not None:
                deliver_train = wrap_train(
                    link, node, deliver_train or self._deliver_train)
        self._sink = sink
        if deliver_train is not None:
            self._deliver_train = deliver_train

    # ------------------------------------------------------------------
    # fault injection: administrative up/down
    # ------------------------------------------------------------------
    # Semantics, chosen to be deterministic and identical across engines:
    # a packet fully handed to the wire before the fault (its delivery
    # event already scheduled) still arrives — photons in flight don't
    # care about the cable being cut behind them — while everything
    # waiting in the queue is flushed and everything offered while down
    # is dropped at the sender.  Trains that straddle the fault are
    # truncated at delivery time to the packets that crossed the wire
    # before ``down_at + delay`` (see _deliver_train).
    def set_down(self) -> None:
        """Fail this direction: flush the queue, drop all later sends."""
        if self._down_at is not None:
            return
        now = self._sim._now
        self._down_at = now
        self._rebind()
        flushed = self._queue.clear()
        if flushed:
            stats = self._counts
            stats.packets_dropped += flushed
            stats.packets_dropped_down += flushed
        if self._train_mode:
            # Offered rates and backlog die with the link; invalidate any
            # pending _fl_release events for the old state.
            self._fl_gen += 1
            self._fl_rate = 0.0
            self._fl_q = 0.0
            self._fl_t = now
            self._fl_adm = 0.0

    def set_up(self) -> None:
        """Recover this direction onto whichever send path its mode calls for."""
        if self._down_at is None:
            return
        self._down_at = None
        self._rebind()
        if self._train_mode:
            self._fl_t = self._sim._now

    def _send_down(self, packet: Packet) -> bool:
        stats = self._counts
        stats.packets_sent += 1
        stats.packets_dropped += 1
        stats.packets_dropped_down += 1
        return False

    def _send_train_down(self, train: PacketTrain) -> bool:
        n = train.count
        stats = self._counts
        stats.packets_sent += n
        stats.packets_dropped += n
        stats.packets_dropped_down += n
        return False

    # ------------------------------------------------------------------
    # train mode: fluid serialization
    # ------------------------------------------------------------------
    # In train mode the pipe stops materialising per-packet events and
    # models itself as a fluid server: admitted trains contribute an
    # arrival *rate* over their span, the serializer drains at the link
    # rate, and the queue is a piecewise-linear level updated only at
    # events (train arrival, span end, single-packet send).  Acceptance is
    # decided in closed form at arrival:
    #
    # * queue empty and aggregate inflow <= capacity -> the train passes
    #   through exactly as per-packet mode would deliver it (first packet
    #   at t + tx + delay, spacing unchanged) — the uncongested case is
    #   *exact*;
    # * otherwise the queue fills at (inflow - service) until it hits the
    #   byte capacity, after which the train keeps only its fair share
    #   service/inflow of the remaining packets; the accepted sub-train is
    #   forwarded (count shrunk, spacing stretched to span/accepted) and
    #   the tail-dropped remainder is accounted in bulk.
    #
    # Individual packets (AITF control traffic) ride the same fluid state
    # as instantaneous bursts, so they queue behind train backlog exactly
    # like data would.  The approximations — atomic per-train admission,
    # fair-share dropping, uniform output spacing — only engage under
    # congestion; the equivalence tests in tests/test_train_mode.py pin
    # how far they may drift from per-packet mode.
    def enable_train_mode(self) -> None:
        """Flip this pipe to fluid serialization (train-mode experiments).

        Per-packet sends are redirected by :meth:`_rebind`, so packet-mode
        pipes pay zero extra cost; a pipe that is down stays down.
        """
        if self._train_mode:
            return
        self._train_mode = True
        self._fl_t = self._sim._now
        self._rebind()

    def _fl_advance(self, now: float) -> None:
        """Advance the fluid queue level to ``now`` (clamped to [0, cap])."""
        t0 = self._fl_t
        if now > t0:
            q = self._fl_q + (self._fl_rate - self._srate) * (now - t0)
            cap = self._cap_bytes
            self._fl_q = 0.0 if q <= 0.0 else (cap if q > cap else q)
            self._fl_t = now

    def _fl_release(self, rate: float, gen: int = 0) -> None:
        """A train's span ended: its arrival rate stops contributing.

        ``gen`` guards against releases scheduled before a link fault reset
        the fluid state — they must not subtract from the fresh rate.
        """
        if gen != self._fl_gen:
            return
        self._fl_advance(self._sim._now)
        remaining = self._fl_rate - rate
        self._fl_rate = remaining if remaining > 1e-12 else 0.0

    def _fluid_send_packet(self, packet: Packet) -> bool:
        """Train-mode single-packet send: an instantaneous one-packet burst."""
        stats = self._counts
        stats.packets_sent += 1
        size = packet.size
        qstats = self._qstats
        if size > self._cap_bytes or self._zero_packet_cap:
            qstats.dropped += 1
            qstats.bytes_dropped += size
            stats.packets_dropped += 1
            return False
        sim = self._sim
        self._fl_advance(sim._now)
        q0 = self._fl_q
        if q0 + size > self._cap_bytes:
            # Saturated fluid queue.  Per-packet mode still admits the
            # fraction of arrivals that land just after a departure (the
            # queue drains at the service rate while the flood pours in at
            # the inflow rate), so single packets — AITF handshakes and
            # filtering requests crossing the attacked link — must not be
            # starved *deterministically* during a sustained flood.  A
            # credit accumulator admits exactly the service/inflow share,
            # keeping the fluid path deterministic (no RNG, state advances
            # in event order).
            inflow = self._fl_rate
            srate = self._srate
            # AITF control messages (requests, handshakes) are rare and
            # tiny; per-packet mode delivers nearly all of them because
            # filters drain the queue between control events, so dropping
            # them at fair share here makes train mode diverge into
            # escalation storms.  Their byte share is negligible, so
            # admitting them does not distort the fluid rates.
            admitted = packet.kind is not PacketKind.DATA
            if not admitted and inflow > srate:
                self._fl_adm += srate / inflow
                if self._fl_adm >= 1.0:
                    self._fl_adm -= 1.0
                    admitted = True
            if not admitted:
                qstats.dropped += 1
                qstats.bytes_dropped += size
                stats.packets_dropped += 1
                return False
            q0 = self._cap_bytes - size
        self._fl_q = q0 + size
        qstats.enqueued += 1
        qstats.bytes_enqueued += size
        qstats.dequeued += 1
        if qstats.peak_depth_packets < 1:
            qstats.peak_depth_packets = 1
        depth = int(q0) + size
        if qstats.peak_depth_bytes < depth:
            qstats.peak_depth_bytes = depth
        tx = size / self._srate
        sim.schedule_fire(q0 / self._srate + tx + self._delay,
                          self._sink.receive_packet, packet, self._link)
        return True

    def send_train(self, train: PacketTrain) -> bool:
        """Offer a whole train; False means every packet was dropped."""
        n = train.count
        template = train.template
        size = template.size
        if n == 1:
            return self._fluid_send_packet(template)
        stats = self._counts
        stats.packets_sent += n
        qstats = self._qstats
        if size > self._cap_bytes or self._zero_packet_cap:
            qstats.count_train(0, n, size)
            stats.packets_dropped += n
            return False
        sim = self._sim
        now = sim._now
        self._fl_advance(now)
        srate = self._srate
        dt = train.interval
        rate = size / dt
        inflow = self._fl_rate + rate
        span = n * dt
        q0 = self._fl_q
        cap = self._cap_bytes
        if q0 <= 0.0 and inflow <= srate:
            # Exact pass-through: nothing waiting and the aggregate rate
            # fits the link.  First packet out after one serialization,
            # spacing preserved — identical to the per-packet lazy pipe.
            accepted = n
            wait = 0.0
            out_interval = dt
        else:
            wait = q0 / srate
            if inflow > srate:
                fill_time = (cap - q0) / (inflow - srate)
                if fill_time >= span:
                    accepted = n
                else:
                    share = srate / inflow
                    frac = (fill_time + (span - fill_time) * share) / span
                    accepted = int(n * frac)
                    if accepted > n:
                        accepted = n
            else:
                accepted = n
            out_interval = span / accepted if accepted else dt
        dropped = n - accepted
        qstats.count_train(accepted, dropped, size)
        if dropped:
            stats.packets_dropped += dropped
            # The fluid queue is (or will be) full; record the saturated depth.
            if qstats.peak_depth_bytes < cap:
                qstats.peak_depth_bytes = cap
            packets_deep = cap // size
            if qstats.peak_depth_packets < packets_deep:
                qstats.peak_depth_packets = packets_deep
        # The *offered* rate joins the fluid state (drops happen at the tail
        # of this queue, so later arrivals must see the full contention) —
        # even for a train that loses every packet, or surviving flows would
        # compute their fair share from an understated inflow.  Downstream
        # pipes see only the admitted rate, through the delivered train's
        # shrunken count and stretched spacing.  The rate releases at the
        # *last packet's* nominal time, (n-1)*dt — strictly before the next
        # train of the same flow arrives, so a steady flow never counts
        # itself twice.
        self._fl_rate += rate
        sim.fire_at(now + (n - 1) * dt, self._fl_release, rate, self._fl_gen)
        if accepted == 0:
            return False
        if qstats.peak_depth_packets < 1:
            qstats.peak_depth_packets = 1
        if qstats.peak_depth_bytes < size:
            qstats.peak_depth_bytes = size
        tx = size / srate
        train.count = accepted
        train.interval = out_interval
        sim.schedule_fire(wait + tx + self._delay, self._deliver_train, train)
        return True

    def _deliver_train(self, train: PacketTrain) -> None:
        """A train arrives: truncated to what crossed before a fault, then
        handed to the node, which counts it (:meth:`Link.arrived`)."""
        stats = self._counts
        down_at = self._down_at
        if down_at is not None:
            # The link failed while this train was in flight.  Packets that
            # finished crossing the wire before the cut — arrival strictly
            # before down_at + delay — still land; the rest are stranded.
            now = self._sim._now
            window = (down_at + self._delay) - now
            if window <= 0.0:
                stats.packets_dropped += train.count
                stats.packets_dropped_down += train.count
                return
            if train.interval > 0.0:
                keep = math.ceil(window / train.interval)
                if keep < train.count:
                    stranded = train.count - keep
                    stats.packets_dropped += stranded
                    stats.packets_dropped_down += stranded
                    train.count = keep
        self._node.receive_train(train, self._link)


# CPython 3.11+ keeps a pipe's attributes inline, keyed by a table every
# _Pipe shares, and that table's room for a name first set after
# ``__init__`` shrinks with each pipe built: a name that no longer fits
# gives the pipe that sets it (or fails to delete it) an instance dict.
# The entry points take their places now, on a throwaway pipe, before any
# other pipe exists.
_probe = _Pipe.__new__(_Pipe)
for _name in _ENTRY_POINTS:
    setattr(_probe, _name, None)
del _probe, _name


class Link:
    """A bidirectional point-to-point link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        a: PacketSink,
        b: PacketSink,
        *,
        bandwidth_bps: float = 100e6,
        delay: float = 0.005,
        queue_capacity_bytes: int = 128_000,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay = float(delay)
        self.name = name or f"{a.name}<->{b.name}"
        self.queue_capacity_bytes = queue_capacity_bytes
        # Both pipes are built together by _pipes(), the first time anything
        # sends or changes a direction's state: most links of a large
        # topology never carry a packet.  Until then the link holds only
        # the states the pipes would start in.
        self._pipe_to_b: Optional[_Pipe] = None
        self._pipe_to_a: Optional[_Pipe] = None
        self._train_mode = False
        self._up = True
        #: ``(packet_wrapper, train_wrapper)`` pairs, in tap order.
        self._taps: tuple = ()

    def _pipes(self) -> "_Pipe":
        """Build both directions (once); returns the one toward ``b``."""
        pipe_to_b = self._pipe_to_b
        if pipe_to_b is not None:
            return pipe_to_b
        a, b, capacity = self.a, self.b, self.queue_capacity_bytes
        pipe_to_b = self._pipe_to_b = _Pipe(
            self.sim, b, self.bandwidth_bps, self.delay,
            DropTailQueue(capacity, name=f"{self.name}:{a.name}->{b.name}"),
            self,
        )
        self._pipe_to_a = _Pipe(
            self.sim, a, self.bandwidth_bps, self.delay,
            DropTailQueue(capacity, name=f"{self.name}:{b.name}->{a.name}"),
            self,
        )
        # Either call rebinds the pipe, which applies the recorded taps.
        if self._train_mode:
            pipe_to_b.enable_train_mode()
            self._pipe_to_a.enable_train_mode()
        elif self._taps:
            pipe_to_b._rebind()
            self._pipe_to_a._rebind()
        return pipe_to_b

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def pipe_from(self, sender: PacketSink) -> _Pipe:
        """The directional pipe ``sender`` transmits on (both directions are
        built here if the link has none yet).

        Nodes forward straight into the pipe: they read ``_pipe_to_b`` /
        ``_pipe_to_a`` themselves and come here only while it is None, so a
        hop costs no call on the link.
        """
        pipe_to_b = self._pipe_to_b
        if pipe_to_b is None:
            pipe_to_b = self._pipes()
        if sender is self.a:
            return pipe_to_b
        if sender is self.b:
            return self._pipe_to_a
        raise ValueError(f"{getattr(sender, 'name', sender)} is not attached to link {self.name}")

    def send(self, packet: Packet, sender: PacketSink) -> bool:
        """Transmit ``packet`` from ``sender`` toward the other endpoint."""
        return self.pipe_from(sender).send(packet)

    def send_train(self, train: PacketTrain, sender: PacketSink) -> bool:
        """Transmit an aggregated packet train (train-mode experiments only)."""
        return self.pipe_from(sender).send_train(train)

    def arrived(self, node: PacketSink, packet: Packet, count: int = 1) -> None:
        """Count ``count`` copies of ``packet`` as delivered to ``node`` over
        this link: the receiver's half of the pipe's ledger, counted once.

        Every sink calls this from ``receive_packet``; the nodes inline it
        (``router/nodes.py``), and a node's ``packets_received`` is read
        back as the sum over its incoming pipes.
        """
        counts = (self._built_toward(node) or self.pipe_toward(node))._counts
        counts.packets_delivered += count
        counts.bytes_delivered += count * packet.size

    def enable_train_mode(self) -> None:
        """Switch both directions to fluid (train-aware) serialization.

        One-way: experiments opt in before any traffic flows; links in the
        default per-packet mode never check the flag at all.  A link whose
        pipes are not built yet only records the mode, and its pipes start
        fluid.
        """
        self._train_mode = True
        if self._pipe_to_b is not None:
            self._pipe_to_b.enable_train_mode()
            self._pipe_to_a.enable_train_mode()

    def tap(self, packet_wrapper=None, train_wrapper=None) -> None:
        """Observe deliveries in both directions (the tracing plane's hook).

        ``packet_wrapper(link, sink)`` returns the receiver a pipe's
        delivery events call: a ``(packet, link)`` callable that observes
        the packet and then hands it on with ``sink.receive_packet(packet,
        link)`` (for a later tap, ``sink`` carries the earlier tap's
        receiver and the node's name).  ``train_wrapper(link, sink,
        deliver)`` returns a one-argument callable that observes a train
        and then calls ``deliver(train)``.  A wrapper is built once per pipe
        (and again when a state change rebinds it), not per packet.

        Only observed runs call this; a link that is never tapped carries
        no tracing code on its delivery path at all (see
        :meth:`_Pipe._rebind`).  A link whose pipes are not built yet only
        records the wrappers, and its pipes start tapped, so observing a
        run builds no link it does not use.
        """
        self._taps += ((packet_wrapper, train_wrapper),)
        if self._pipe_to_b is not None:
            self._pipe_to_b._rebind()
            self._pipe_to_a._rebind()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """True while the link carries traffic (fault injection may flip it)."""
        return self._up

    def set_down(self) -> bool:
        """Fail both directions.  Returns True if the link was up before."""
        if not self._up:
            return False
        self._up = False
        self._pipes().set_down()
        self._pipe_to_a.set_down()
        return True

    def set_up(self) -> bool:
        """Recover both directions.  Returns True if the link was down before."""
        if self._up:
            return False
        self._up = True
        self._pipes().set_up()
        self._pipe_to_a.set_up()
        return True

    def other_end(self, node: PacketSink) -> PacketSink:
        """The endpoint that is not ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{getattr(node, 'name', node)} is not attached to link {self.name}")

    def pipe_toward(self, node: PacketSink) -> _Pipe:
        """The directional pipe whose *receiver* is ``node`` (built here if
        the link has none yet), for tests and benchmarks that inspect a
        pipe's live state; reading stats or queues goes through
        :meth:`stats_toward` / :meth:`queue_toward`, which build nothing.
        """
        self._pipes()
        return self._built_toward(node)

    # ------------------------------------------------------------------
    # inspection: reading a link that never carried traffic builds nothing
    # ------------------------------------------------------------------
    def _built_toward(self, node: PacketSink) -> Optional[_Pipe]:
        """The pipe toward ``node``, or None while the link has none."""
        if node is self.b:
            return self._pipe_to_b
        if node is self.a:
            return self._pipe_to_a
        raise ValueError(f"{getattr(node, 'name', node)} is not attached to link {self.name}")

    def stats_toward(self, node: PacketSink) -> LinkStats:
        """Transmission stats for the direction whose receiver is ``node``
        (all zero, and a fresh object, on a link with no pipes yet)."""
        pipe = self._built_toward(node)
        return LinkStats() if pipe is None else pipe.stats

    def queue_toward(self, node: PacketSink) -> DropTailQueue:
        """The queue feeding the direction whose receiver is ``node`` (an
        empty one of the link's capacity, not kept, on a link with no pipes
        yet)."""
        pipe = self._built_toward(node)
        if pipe is None:
            return DropTailQueue(self.queue_capacity_bytes)
        return pipe.queue

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mbps = self.bandwidth_bps / 1e6
        return f"Link({self.name}, {mbps:.1f} Mbps, {self.delay * 1e3:.1f} ms)"
