"""Finite packet queues.

The victim's tail circuit congests because its ingress queue overflows; that
is the whole mechanism a bandwidth DoS attack exploits (Section I's 10 Mbps
example).  :class:`DropTailQueue` is the standard FIFO with a byte-capacity
bound and per-queue statistics that the goodput experiments read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple, Union

from repro.net.packet import Packet

#: What every queue that has not held a packet yet reads as: most pipes of
#: a large topology never queue anything (an idle pipe serializes on the
#: bypass, a fluid pipe in closed form), and an empty ``deque`` is 760
#: bytes.  Tested by identity, so a queue drained to empty keeps its deque.
_EMPTY: Tuple[Packet, ...] = ()


@dataclass
class QueueStats:
    """Counters accumulated by a queue over a run."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    bytes_enqueued: int = 0
    bytes_dropped: int = 0
    #: Packets discarded by an administrative flush (:meth:`DropTailQueue.clear`),
    #: counted separately from tail drops: a flushed packet was already
    #: accepted (it is in ``enqueued``), so folding it into ``dropped`` would
    #: double-count it in the offered-load denominator.
    flushed: int = 0
    bytes_flushed: int = 0
    peak_depth_packets: int = 0
    peak_depth_bytes: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were dropped at the tail."""
        offered = self.enqueued + self.dropped
        return self.dropped / offered if offered else 0.0

    def count_train(self, accepted: int, dropped: int, size: int) -> None:
        """Bulk accounting for an aggregated packet train crossing this queue.

        Train mode never materialises the train's packets in the deque — the
        fluid pipe decides acceptance in closed form — but the counters must
        read exactly as if ``accepted`` packets passed through and ``dropped``
        were tail-dropped, so goodput experiments see one set of semantics
        whatever the engine mode.
        """
        if accepted:
            self.enqueued += accepted
            self.bytes_enqueued += accepted * size
            self.dequeued += accepted
        if dropped:
            self.dropped += dropped
            self.bytes_dropped += dropped * size

    @property
    def packets_lost(self) -> int:
        """Every packet this queue accepted or saw but never delivered."""
        return self.dropped + self.flushed

    @property
    def bytes_lost(self) -> int:
        """Bytes dropped at the tail plus bytes discarded by flushes."""
        return self.bytes_dropped + self.bytes_flushed


class DropTailQueue:
    """A FIFO queue bounded in bytes (and optionally packets)."""

    def __init__(
        self,
        capacity_bytes: int = 64_000,
        capacity_packets: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.capacity_packets = capacity_packets
        self.name = name
        self.stats = QueueStats()
        self._queue: Union[Deque[Packet], Tuple[Packet, ...]] = _EMPTY
        self._bytes = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        """Bytes currently sitting in the queue."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True when nothing is queued."""
        return not self._queue

    def would_drop(self, packet: Packet) -> bool:
        """True if enqueueing ``packet`` right now would overflow the queue."""
        if self.capacity_packets is not None and len(self._queue) >= self.capacity_packets:
            return True
        return self._bytes + packet.size > self.capacity_bytes

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Append a packet; returns False (and counts a drop) on overflow.

        The overflow test is inlined (rather than calling :meth:`would_drop`)
        because every packet on every link goes through here.
        """
        stats = self.stats
        size = packet.size
        queue = self._queue
        if (self._bytes + size > self.capacity_bytes
                or (self.capacity_packets is not None
                    and len(queue) >= self.capacity_packets)):
            stats.dropped += 1
            stats.bytes_dropped += size
            return False
        if queue is _EMPTY:
            queue = self._queue = deque()
        queue.append(packet)
        new_bytes = self._bytes = self._bytes + size
        stats.enqueued += 1
        stats.bytes_enqueued += size
        depth = len(queue)
        if depth > stats.peak_depth_packets:
            stats.peak_depth_packets = depth
        if new_bytes > stats.peak_depth_bytes:
            stats.peak_depth_bytes = new_bytes
        return True

    def enqueue_priority(self, packet: Packet) -> bool:
        """Append a packet past the capacity bound (protocol control traffic).

        AITF control messages are a few hundred bytes per attack flow, so
        letting them ride over a full data queue never grows it by more
        than a rounding error — while tail-dropping them would let the
        flood suppress the very messages that stop it.  Stats are counted
        exactly like a normal enqueue.
        """
        stats = self.stats
        size = packet.size
        queue = self._queue
        if queue is _EMPTY:
            queue = self._queue = deque()
        queue.append(packet)
        new_bytes = self._bytes = self._bytes + size
        stats.enqueued += 1
        stats.bytes_enqueued += size
        depth = len(queue)
        if depth > stats.peak_depth_packets:
            stats.peak_depth_packets = depth
        if new_bytes > stats.peak_depth_bytes:
            stats.peak_depth_bytes = new_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the oldest packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        return packet

    def peek(self) -> Optional[Packet]:
        """Look at the oldest packet without removing it."""
        return self._queue[0] if self._queue else None

    def clear(self) -> int:
        """Discard everything queued; returns the number of packets discarded.

        The discarded packets and bytes are accounted in
        :attr:`QueueStats.flushed` / :attr:`QueueStats.bytes_flushed` so
        goodput experiments that flush queues (e.g. around a disconnection)
        do not under-report losses.
        """
        discarded = len(self._queue)
        self.stats.flushed += discarded
        self.stats.bytes_flushed += self._bytes
        self._queue = _EMPTY
        self._bytes = 0
        return discarded
