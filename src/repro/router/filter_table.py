"""Wire-speed filter table with a hard capacity bound.

The paper's premise: "a sophisticated hardware router has a fixed maximum
number of wire-speed filters ... typically limited to several thousand"
(Section I).  The whole point of AITF is to protect a client against N
undesired flows using only n << N of these slots (Section II-B), so the
filter table must enforce its bound honestly — when it is full, installs
fail, and the caller decides what to do about it.

Filters expire on their own after the duration they were installed for.
Expiry is driven by a min-heap keyed on expiry time, so the per-operation
purge is O(1) when nothing has expired (the common case on the packet path)
instead of a full-table sweep.  Occupancy numbers reported to the
benchmarks reflect live filters only.

The packet path mirrors what the hardware actually does: filters on
concrete ``(src, dst)`` address pairs — the overwhelming majority AITF ever
installs — live in an exact-match hash index, and only wildcard or
prefix-valued labels fall back to a (short) residual scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet


class FilterTableFullError(RuntimeError):
    """Raised when a filter install is attempted on a full table."""


_filter_ids = itertools.count(1)


@dataclass
class FilterEntry:
    """One installed wire-speed filter."""

    label: FlowLabel
    installed_at: float
    expires_at: float
    reason: str = ""
    filter_id: int = field(default_factory=lambda: next(_filter_ids))
    packets_blocked: int = 0
    bytes_blocked: int = 0
    #: Simulation time of the most recent packet this filter blocked; the
    #: victim's gateway reads it to decide whether the attacker's gateway
    #: really took over before the temporary filter expires.
    last_blocked_at: Optional[float] = None
    #: True when the label constrains nothing beyond the concrete (src, dst)
    #: pair: an exact-index hit then needs no further match (set on insert).
    exact_only: bool = False

    def is_expired(self, now: float) -> bool:
        """True once the filter's lifetime has elapsed."""
        return now >= self.expires_at

    @property
    def lifetime(self) -> float:
        """The duration this filter was installed for."""
        return self.expires_at - self.installed_at


class FilterTable:
    """A bounded set of blocking filters, checked on every forwarded packet.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously installed filters (the hardware
        limit).  ``None`` means unbounded, which the baselines use to model
        an idealized router.
    clock:
        Zero-argument callable returning the current simulation time.
    """

    def __init__(self, capacity: Optional[int] = 1000,
                 clock: Optional[Callable[[], float]] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"filter table capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._clock = clock or (lambda: 0.0)
        #: Primary store, insertion-ordered: filter_id -> entry.
        self._entries: Dict[int, FilterEntry] = {}
        #: Exact-match index: (src<<32 | dst) int -> entries, insertion-ordered.
        self._exact: Dict[int, List[FilterEntry]] = {}
        #: Wildcard / prefix labels that cannot be hash-indexed.
        self._residual: List[FilterEntry] = []
        #: Lazy expiry min-heap of (expires_at, filter_id).  Extending a
        #: filter pushes a fresh record; stale records are skipped on pop.
        self._expiry_heap: List[Tuple[float, int]] = []
        # statistics
        self.total_installed = 0
        self.total_expired = 0
        self.total_removed = 0
        self.install_failures = 0
        self.peak_occupancy = 0
        self.packets_checked = 0
        self.packets_blocked = 0

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time according to the attached clock."""
        return self._clock()

    def __len__(self) -> int:
        self._purge_expired()
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Number of live (non-expired) filters."""
        return len(self)

    @property
    def is_full(self) -> bool:
        """True when no more filters can be installed."""
        if self.capacity is None:
            return False
        return len(self) >= self.capacity

    @property
    def free_slots(self) -> Optional[int]:
        """Remaining capacity, or None for an unbounded table."""
        if self.capacity is None:
            return None
        return max(0, self.capacity - len(self))

    def entries(self) -> List[FilterEntry]:
        """Snapshot of live filters."""
        self._purge_expired()
        return list(self._entries.values())

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def install(self, label: FlowLabel, duration: float, reason: str = "") -> FilterEntry:
        """Install a filter blocking ``label`` for ``duration`` seconds.

        If an existing live filter already covers the label, its expiry is
        extended instead of consuming another slot (a router would not burn
        two TCAM entries on the same classifier).

        Raises
        ------
        FilterTableFullError
            When the table is at capacity and no covering filter exists.
        """
        if duration <= 0:
            raise ValueError(f"filter duration must be positive, got {duration}")
        now = self._clock()
        self._purge_expired()
        existing = self._find_covering(label)
        if existing is not None:
            expires = now + duration
            if expires > existing.expires_at:
                existing.expires_at = expires
                heapq.heappush(self._expiry_heap, (expires, existing.filter_id))
            return existing
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self.install_failures += 1
            raise FilterTableFullError(
                f"filter table {self.name or ''} full ({self.capacity} slots)"
            )
        entry = FilterEntry(
            label=label,
            installed_at=now,
            expires_at=now + duration,
            reason=reason,
        )
        self._entries[entry.filter_id] = entry
        self._index_add(entry)
        heapq.heappush(self._expiry_heap, (entry.expires_at, entry.filter_id))
        self.total_installed += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def remove(self, entry_or_id) -> bool:
        """Remove a filter before it expires.  Returns True if it was present."""
        filter_id = entry_or_id.filter_id if isinstance(entry_or_id, FilterEntry) else int(entry_or_id)
        entry = self._entries.pop(filter_id, None)
        if entry is not None:
            self._index_discard(entry)
            self.total_removed += 1
            return True
        return False

    def remove_matching(self, label: FlowLabel) -> int:
        """Remove every live filter whose label equals ``label``.  Returns the count."""
        key = label.exact_key
        candidates = self._exact.get(key, []) if key is not None else self._residual
        doomed = [entry for entry in candidates if entry.label == label]
        for entry in doomed:
            del self._entries[entry.filter_id]
            self._index_discard(entry)
        self.total_removed += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every filter (used between benchmark iterations)."""
        self._entries.clear()
        self._exact.clear()
        self._residual.clear()
        self._expiry_heap.clear()

    # ------------------------------------------------------------------
    # packet path
    # ------------------------------------------------------------------
    def blocks(self, packet: Packet) -> Optional[FilterEntry]:
        """Return the filter blocking ``packet``, or None if it should be forwarded."""
        self.packets_checked += 1
        if not self._entries:
            return None
        now = self._clock()
        best = self._match(packet, now)
        if best is not None:
            best.packets_blocked += 1
            best.bytes_blocked += packet.size
            best.last_blocked_at = now
            self.packets_blocked += 1
        return best

    def blocks_train(self, template: Packet, count: int, interval: float,
                     count_checked: bool = True) -> Tuple[Optional[FilterEntry], int]:
        """Train-mode :meth:`blocks`: how many of ``count`` packets spaced
        ``interval`` apart (first one arriving *now*) does a filter block?

        Returns ``(entry, blocked)``.  ``blocked`` is 0 when nothing
        matches; ``count`` when the matching filter outlives the whole
        train; and the blocked *prefix length* when the filter expires
        mid-train — the caller re-submits the remainder at the first
        unblocked packet's nominal time, which is exactly the per-packet
        decision boundary (a split, not an approximation).  Per-entry and
        table counters are multiplied by the blocked count, and
        ``last_blocked_at`` is set to the last blocked packet's time so
        cooperation-grace checks see the same evidence per-packet mode
        would have left.  Re-submitted remainders pass
        ``count_checked=False`` so ``packets_checked`` counts each packet
        exactly once, as per-packet mode would.
        """
        if count_checked:
            self.packets_checked += count
        if not self._entries:
            return None, 0
        now = self._clock()
        best = self._match(template, now)
        if best is None:
            return None, 0
        # Packet i (nominal time now + i*interval) is blocked while the
        # filter is live, i.e. strictly before expires_at.
        if count == 1 or interval <= 0:
            blocked = count
        else:
            blocked = math.ceil((best.expires_at - now) / interval - 1e-12)
            if blocked < 1:
                blocked = 1
            elif blocked > count:
                blocked = count
        best.packets_blocked += blocked
        best.bytes_blocked += blocked * template.size
        best.last_blocked_at = now + (blocked - 1) * interval
        self.packets_blocked += blocked
        return best, blocked

    def _match(self, packet: Packet, now: float) -> Optional[FilterEntry]:
        """Purge what expired by ``now``, then return the earliest-installed
        live filter matching ``packet`` (the one lookup behind both
        :meth:`blocks` and :meth:`blocks_train`)."""
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self._purge_expired()
        best: Optional[FilterEntry] = None
        bucket = self._exact.get((packet.src.value << 32) | packet.dst.value)
        if bucket:
            for entry in bucket:
                if entry.exact_only or entry.label.matches(packet):
                    best = entry
                    break
        for entry in self._residual:
            if best is not None and entry.filter_id > best.filter_id:
                break
            if entry.label.matches(packet):
                best = entry
                break
        return best

    def has_filter_for(self, label: FlowLabel) -> bool:
        """True when a live filter covers ``label``."""
        self._purge_expired()
        return self._find_covering(label) is not None

    def tap(self, on_block: Callable[["FilterTable", FilterEntry, Packet, int], None]) -> None:
        """Observe blocked traffic (the tracing plane's filter hook).

        Wraps the bound packet-path methods on this instance, so untapped
        tables — every non-observed run — keep the unwrapped hot path with
        zero added cost.  ``on_block(table, entry, packet, count)`` fires
        after each block; ``count`` is 1 per-packet or the blocked prefix
        length of a train.
        """
        inner_blocks = self.blocks
        inner_blocks_train = self.blocks_train

        def blocks(packet: Packet) -> Optional[FilterEntry]:
            entry = inner_blocks(packet)
            if entry is not None:
                on_block(self, entry, packet, 1)
            return entry

        def blocks_train(template: Packet, count: int, interval: float,
                         count_checked: bool = True
                         ) -> Tuple[Optional[FilterEntry], int]:
            entry, blocked = inner_blocks_train(template, count, interval,
                                                count_checked)
            if entry is not None and blocked:
                on_block(self, entry, template, blocked)
            return entry, blocked

        self.blocks = blocks  # type: ignore[method-assign]
        self.blocks_train = blocks_train  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _index_add(self, entry: FilterEntry) -> None:
        label = entry.label
        key = label.exact_key
        if key is not None:
            entry.exact_only = (label.protocol is None
                                and label.src_port is None
                                and label.dst_port is None)
            self._exact.setdefault(key, []).append(entry)
        else:
            self._residual.append(entry)

    def _index_discard(self, entry: FilterEntry) -> None:
        key = entry.label.exact_key
        if key is not None:
            bucket = self._exact.get(key)
            if bucket is not None:
                try:
                    bucket.remove(entry)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del self._exact[key]
        else:
            try:
                self._residual.remove(entry)
            except ValueError:  # pragma: no cover - defensive
                pass

    def _find_covering(self, label: FlowLabel) -> Optional[FilterEntry]:
        """The earliest-installed live filter covering ``label``, if any.

        Exact entries can only cover a label with the same concrete
        ``(src, dst)`` pair, so the search is one bucket plus the residual
        list — never the full table.
        """
        best: Optional[FilterEntry] = None
        key = label.exact_key
        if key is not None:
            bucket = self._exact.get(key)
            if bucket:
                for entry in bucket:
                    if entry.label.covers(label):
                        best = entry
                        break
        for entry in self._residual:
            if best is not None and entry.filter_id > best.filter_id:
                break
            if entry.label.covers(label):
                best = entry
                break
        return best

    def _purge_expired(self) -> None:
        heap = self._expiry_heap
        if not heap:
            return
        now = self._clock()
        if heap[0][0] > now:
            return
        entries = self._entries
        expired = 0
        while heap and heap[0][0] <= now:
            _, filter_id = heapq.heappop(heap)
            entry = entries.get(filter_id)
            if entry is None:
                continue  # removed explicitly; this heap record is stale
            if entry.expires_at > now:
                # The filter was extended after this record was pushed; a
                # fresh record for the new expiry is already in the heap.
                continue
            del entries[filter_id]
            self._index_discard(entry)
            expired += 1
        self.total_expired += expired
