"""The DRAM shadow cache kept by the victim's gateway.

Section II-B: "the victim's gateway installs a filter for Ttmp << T time
units, but keeps a 'shadow' of the filter in DRAM for T time units".  The
shadow is what lets the gateway catch "on-off" attackers: when a packet
matching a shadowed flow label reappears after the temporary filter has been
removed, the gateway knows the attacker's gateway reneged, re-blocks
immediately (no new detection delay) and escalates.

DRAM is cheap — the cache is sized in entries (mv = R1 * T, Section IV-B)
rather than in scarce filter slots, and entries age out after T seconds.
A match is "just a DRAM lookup" (Section IV-A.1, footnote 8): lookups and
expiry go through the :class:`~repro.router.label_index.LabelIndex` the
filter table uses, built on the first logged request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router.label_index import LabelIndex

_shadow_ids = itertools.count(1)
_shadow_id = attrgetter("shadow_id")


@dataclass
class ShadowEntry:
    """A logged filtering request."""

    label: FlowLabel
    logged_at: float
    expires_at: float
    requestor: str = ""
    escalations: int = 0
    reappearances: int = 0
    shadow_id: int = field(default_factory=lambda: next(_shadow_ids))
    #: True when the label constrains nothing beyond the concrete (src, dst)
    #: pair: an exact-index hit then needs no further match (set on insert).
    exact_only: bool = False

    def is_expired(self, now: float) -> bool:
        """True once the T-second shadow lifetime has elapsed."""
        return now >= self.expires_at


class ShadowCache:
    """DRAM log of filtering requests, held for T seconds each.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously shadowed requests.  The paper sizes
        this as mv = R1 * T; exceeding it means the contract rate was not
        honoured upstream, so the insert is refused and counted.
    clock:
        Zero-argument callable returning current simulation time.
    """

    def __init__(self, capacity: Optional[int] = None,
                 clock: Optional[Callable[[], float]] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"shadow cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._clock = clock or (lambda: 0.0)
        #: Primary store, insertion-ordered: shadow_id -> entry.
        self._entries: Dict[int, ShadowEntry] = {}
        #: Lookup and expiry over ``_entries``; None until the first log.
        self._index: Optional[LabelIndex] = None
        self.total_logged = 0
        self.insert_failures = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._purge_expired()
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Number of live shadow entries."""
        return len(self)

    @property
    def total_expired(self) -> int:
        """Entries dropped because their T-second lifetime ran out."""
        return 0 if self._index is None else self._index.expired

    def entries(self) -> List[ShadowEntry]:
        """Snapshot of live shadow entries."""
        self._purge_expired()
        return list(self._entries.values())

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def log(self, label: FlowLabel, duration: float, requestor: str = "") -> Optional[ShadowEntry]:
        """Record a filtering request for ``duration`` (= T) seconds.

        Returns the entry, or None when the cache is full.  If the label is
        already shadowed, the existing entry's lifetime is extended.
        """
        if duration <= 0:
            raise ValueError(f"shadow duration must be positive, got {duration}")
        now = self._clock()
        index = self._index
        if index is None:
            index = self._index = LabelIndex(self._entries, _shadow_id)
        index.purge(self._clock)
        existing = self.find(label)
        if existing is not None:
            index.extend(existing, now + duration)
            return existing
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self.insert_failures += 1
            return None
        entry = ShadowEntry(
            label=label,
            logged_at=now,
            expires_at=now + duration,
            requestor=requestor,
        )
        index.add(entry)
        self.total_logged += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def find(self, label: FlowLabel) -> Optional[ShadowEntry]:
        """Return the live entry with exactly this label, if any."""
        now = self._clock()
        if self._entries:
            for entry in self._index.labelled(label):
                if not entry.is_expired(now):
                    return entry
        return None

    def match_packet(self, packet: Packet, count: int = 1) -> Optional[ShadowEntry]:
        """Return the live shadow entry matching ``packet``, if any.

        This is the on-off detection path: a data packet that matches a
        shadowed label means the attack resumed after the temporary filter
        was removed.  Runs once per forwarded packet at every AITF gateway,
        so the empty cache (the overwhelmingly common state) must not even
        read the clock.  ``count`` identical packets (a train) either all
        match or none does, so the lookup runs once and ``reappearances``
        advances by the full count — the accounting the on-off resource
        formulas read.
        """
        if not self._entries:
            return None
        entry = self._index.match(packet, self._clock())
        if entry is not None:
            entry.reappearances += count
        return entry

    def remove(self, entry: ShadowEntry) -> bool:
        """Remove a shadow entry early.  Returns True if it was present."""
        if entry.shadow_id in self._entries:
            self._index.remove(entry.shadow_id)
            return True
        return False

    def clear(self) -> None:
        """Discard every entry."""
        if self._index is not None:
            self._index.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _purge_expired(self) -> None:
        if self._index is not None:
            self._index.purge(self._clock)
