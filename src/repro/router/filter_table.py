"""Wire-speed filter table with a hard capacity bound.

The paper's premise: "a sophisticated hardware router has a fixed maximum
number of wire-speed filters ... typically limited to several thousand"
(Section I).  The whole point of AITF is to protect a client against N
undesired flows using only n << N of these slots (Section II-B), so the
filter table must enforce its bound honestly — when it is full, installs
fail, and the caller decides what to do about it.

Filters expire on their own after the duration they were installed for.
Occupancy numbers reported to the benchmarks reflect live filters only.

The packet path mirrors what the hardware actually does: lookups and expiry
go through :class:`~repro.router.label_index.LabelIndex` (exact-match hash
index, short residual scan, lazy expiry heap), built on the first install —
most routers of a large topology never hold a filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router.label_index import LabelIndex


class FilterTableFullError(RuntimeError):
    """Raised when a filter install is attempted on a full table."""


_filter_ids = itertools.count(1)
_filter_id = attrgetter("filter_id")

#: ``_entries`` of every table that never held a filter; the first install
#: gives a table its own dict (and the index over it).
_NO_ENTRIES: Dict[int, "FilterEntry"] = {}


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
        self._entries: Dict[int, FilterEntry] = _NO_ENTRIES
        #: Lookup and expiry over ``_entries``; None until the first install.
        self._index: Optional[LabelIndex] = None
        # statistics
        self.total_installed = 0
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
    def total_expired(self) -> int:
        """Filters dropped because their lifetime ran out."""
        return 0 if self._index is None else self._index.expired

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
        index = self._index
        if index is None:
            self._entries = {}
            index = self._index = LabelIndex(self._entries, _filter_id)
        index.purge(self._clock)
        existing = index.covering(label)
        if existing is not None:
            index.extend(existing, now + duration)
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
        index.add(entry)
        self.total_installed += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def remove(self, entry_or_id) -> bool:
        """Remove a filter before it expires.  Returns True if it was present."""
        filter_id = entry_or_id.filter_id if isinstance(entry_or_id, FilterEntry) else int(entry_or_id)
        if filter_id in self._entries:
            self._index.remove(filter_id)
            self.total_removed += 1
            return True
        return False

    def remove_matching(self, label: FlowLabel) -> int:
        """Remove every live filter whose label equals ``label``.  Returns the count."""
        if not self._entries:
            return 0
        doomed = self._index.labelled(label)
        for entry in doomed:
            self._index.remove(entry.filter_id)
        self.total_removed += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every filter (used between benchmark iterations)."""
        if self._index is not None:
            self._index.clear()

    # ------------------------------------------------------------------
    # packet path
    # ------------------------------------------------------------------
    def blocks(self, packet: Packet) -> Optional[FilterEntry]:
        """Return the filter blocking ``packet``, or None if it should be
        forwarded.  A border router answers a table without filters itself
        (``packets_checked += 1``, see ``BorderRouter.receive_packet``), and
        so does a host its outbound table (``NetworkNode.send``, which asks
        :meth:`blocks_train` at interval 0 when the table holds one).

        While the table holds no wildcard or prefix label this looks in the
        packet's exact ``(src, dst)`` bucket itself (:meth:`LabelIndex.match`
        without the residual scan); otherwise it asks the index."""
        self.packets_checked += 1
        if not self._entries:
            return None
        now = self._clock()
        index = self._index
        if index.next_expiry <= now:
            index.expire(now)
        if index._residual:
            best = index.match(packet, now)
        else:
            best = None
            bucket = index._exact.get(
                (packet.src.value << 32) | packet.dst.value)
            if bucket:
                for entry in bucket:
                    if entry.expires_at > now and (
                            entry.exact_only or entry.label.matches(packet)):
                        best = entry
                        break
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
        index = self._index
        if index.next_expiry <= now:
            index.expire(now)
        best = index.match(template, now)
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

    def has_filter_for(self, label: FlowLabel) -> bool:
        """True when a live filter covers ``label``."""
        self._purge_expired()
        return bool(self._entries) and self._index.covering(label) is not None

    def tap(self, blocks_wrapper=None, train_wrapper=None) -> None:
        """Observe blocked traffic (the tracing plane's filter hook).

        Replaces the bound packet-path methods on this instance, so
        untapped tables — every non-observed run — keep the unwrapped hot
        path with zero added cost.  ``blocks_wrapper(table, blocks)``
        returns the new :meth:`blocks`: a callable with its signature that
        calls ``blocks`` and observes a non-None entry; ``train_wrapper``
        does the same for :meth:`blocks_train`.  Each is built once per
        table; a later tap wraps an earlier one.
        """
        if blocks_wrapper is not None:
            self.blocks = blocks_wrapper(  # type: ignore[method-assign]
                self, self.blocks)
        if train_wrapper is not None:
            self.blocks_train = train_wrapper(  # type: ignore[method-assign]
                self, self.blocks_train)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _purge_expired(self) -> None:
        if self._index is not None:
            self._index.purge(self._clock)


# The names a tap sets take their places in the tables' shared key table
# before any table exists, so a tapped table keeps its attributes inline
# (see the same step after ``repro.net.link._Pipe``).
_probe = FilterTable.__new__(FilterTable)
_probe.blocks = _probe.blocks_train = None
del _probe
