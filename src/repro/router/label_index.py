"""The label index under the filter table and the shadow cache.

Both tables hold entries that carry a :class:`~repro.net.flowlabel.FlowLabel`
and an expiry time, are asked on every forwarded packet (or train) whether
one of them matches, and answer as a linear scan in insertion order would:
the earliest-inserted live match wins.  The paper's hardware does neither
with a scan — a wire-speed filter is a TCAM row, a shadow match "just a DRAM
lookup" (Section IV-A.1, footnote 8) — and neither does this:

* labels on a concrete ``(src, dst)`` pair — the overwhelming majority AITF
  ever installs — live in a hash index keyed on the 64-bit
  ``src << 32 | dst`` integer (:attr:`FlowLabel.exact_key`); only wildcard
  or prefix-valued labels fall back to a (short) residual scan;
* expiry is a lazy min-heap of ``(expires_at, id)`` records, so asking
  whether anything has expired is one comparison.  Extending an entry pushes
  a fresh record; records of extended or removed entries are skipped when
  they surface.

When to sweep is the table's decision, not the index's: the filter table
frees a slot the moment it looks past an expired filter, the shadow cache
counts an expiry when its occupancy is next read.  A lookup never returns an
expired entry either way.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet

_NEVER = float("inf")


class LabelIndex:
    """Finds one table's entries by packet or by label, and expires them.

    ``entries`` is the owning table's insertion-ordered ``id -> entry``
    dict.  It stays the table's primary store (an empty one is the table's
    fast exit, ahead of any clock read); the index adds to it and deletes
    from it.  An entry is anything with a ``label``, an ``expires_at`` and a
    writable ``exact_only`` flag; ``entry_id`` reads the id it is stored
    under.  Ids grow with insertion, so the smaller id is the earlier entry.
    """

    __slots__ = ("_entries", "_entry_id", "_exact", "_residual",
                 "_expiry_heap", "next_expiry", "expired")

    def __init__(self, entries: Dict[int, Any],
                 entry_id: Callable[[Any], int]) -> None:
        self._entries = entries
        self._entry_id = entry_id
        #: Exact-match index: (src<<32 | dst) int -> entries, insertion-ordered.
        self._exact: Dict[int, List[Any]] = {}
        #: Wildcard / prefix labels that cannot be hash-indexed.
        self._residual: List[Any] = []
        self._expiry_heap: List[Tuple[float, int]] = []
        #: When the earliest pending record comes due: :meth:`expire` has
        #: nothing to do before then.
        self.next_expiry = _NEVER
        #: Entries dropped because their lifetime ran out.
        self.expired = 0

    # ------------------------------------------------------------------
    # insert / extend / remove
    # ------------------------------------------------------------------
    def add(self, entry: Any) -> None:
        """Store and index a new entry."""
        entry_id = self._entry_id(entry)
        self._entries[entry_id] = entry
        label = entry.label
        key = label.exact_key
        if key is not None:
            # Nothing constrained beyond the concrete pair: an exact-index
            # hit then needs no further match.
            entry.exact_only = (label.protocol is None
                                and label.src_port is None
                                and label.dst_port is None)
            self._exact.setdefault(key, []).append(entry)
        else:
            self._residual.append(entry)
        self._push(entry.expires_at, entry_id)

    def extend(self, entry: Any, expires_at: float) -> None:
        """Let ``entry`` live until ``expires_at``, if that is later."""
        if expires_at > entry.expires_at:
            entry.expires_at = expires_at
            self._push(expires_at, self._entry_id(entry))

    def _push(self, expires_at: float, entry_id: int) -> None:
        heap = self._expiry_heap
        heapq.heappush(heap, (expires_at, entry_id))
        self.next_expiry = heap[0][0]

    def remove(self, entry_id: int) -> None:
        """Drop the entry stored under ``entry_id``; its heap records go
        stale and are skipped when they surface."""
        self._unindex(self._entries.pop(entry_id))

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._exact.clear()
        self._residual.clear()
        self._expiry_heap.clear()
        self.next_expiry = _NEVER

    def _unindex(self, entry: Any) -> None:
        key = entry.label.exact_key
        if key is None:
            self._residual.remove(entry)
            return
        bucket = self._exact[key]
        bucket.remove(entry)
        if not bucket:
            del self._exact[key]

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def purge(self, clock: Callable[[], float]) -> None:
        """Drop what has expired; the clock is read only while a record is
        pending."""
        if self._expiry_heap:
            now = clock()
            if self.next_expiry <= now:
                self.expire(now)

    def expire(self, now: float) -> None:
        """Drop every entry whose lifetime has run out by ``now``."""
        heap = self._expiry_heap
        entries = self._entries
        while heap and heap[0][0] <= now:
            _, entry_id = heapq.heappop(heap)
            entry = entries.get(entry_id)
            # None: removed explicitly.  Later expiry: extended after this
            # record was pushed, and a fresh record is already in the heap.
            if entry is None or entry.expires_at > now:
                continue
            del entries[entry_id]
            self._unindex(entry)
            self.expired += 1
        self.next_expiry = heap[0][0] if heap else _NEVER

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def match(self, packet: Packet, now: float) -> Optional[Any]:
        """The earliest-inserted entry live at ``now`` whose label matches
        ``packet`` — the one lookup behind every per-packet and per-train
        decision of both tables."""
        best = None
        bucket = self._exact.get((packet.src.value << 32) | packet.dst.value)
        if bucket:
            for entry in bucket:
                if entry.expires_at > now and (
                        entry.exact_only or entry.label.matches(packet)):
                    best = entry
                    break
        residual = self._residual
        if residual:
            entry_id = self._entry_id
            for entry in residual:
                if best is not None and entry_id(entry) > entry_id(best):
                    break
                if entry.expires_at > now and entry.label.matches(packet):
                    best = entry
                    break
        return best

    def covering(self, label: FlowLabel) -> Optional[Any]:
        """The earliest-inserted entry whose label covers ``label``, if any
        (expired or not: sweep first).

        Exact entries can only cover a label with the same concrete
        ``(src, dst)`` pair, so the search is one bucket plus the residual
        list — never the full table.
        """
        best = None
        key = label.exact_key
        if key is not None:
            for entry in self._exact.get(key, ()):
                if entry.label.covers(label):
                    best = entry
                    break
        entry_id = self._entry_id
        for entry in self._residual:
            if best is not None and entry_id(entry) > entry_id(best):
                break
            if entry.label.covers(label):
                best = entry
                break
        return best

    def labelled(self, label: FlowLabel) -> List[Any]:
        """Every entry whose label equals ``label``, expired or not, earliest
        first (equal labels share an exact key, or are all residual)."""
        key = label.exact_key
        candidates = self._exact.get(key, ()) if key is not None else self._residual
        return [entry for entry in candidates if entry.label == label]
