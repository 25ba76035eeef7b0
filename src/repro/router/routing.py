"""Static longest-prefix-match routing.

Routing in the reproduction is deliberately static: topology builders compute
shortest paths once (BGP convergence is out of scope for the paper) and
install prefix routes on every node.  The table supports a default route so
stub networks can simply point "everything else" at their provider, which is
how real enterprise networks in the paper's Figure 1 are wired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.net.address import IPAddress, Prefix

#: Cache-miss sentinel (None is a legal cached result: "no route").
_MISS = object()

#: What a row stores: ``(link, metric)``, one shared tuple per distinct pair
#: per table (see :meth:`RoutingTable.next_hop`).
NextHop = Tuple[object, int]


@dataclass(frozen=True)
class Route:
    """One routing entry as read back from a table: a destination prefix
    and the link to forward over.

    A view, rendered from a row's int key and its shared next-hop record
    when somebody asks (``lookup``, ``route_for``, ``routes``,
    ``add_route``); the table itself holds no object per row.
    """

    prefix: Prefix
    link: object  # repro.net.link.Link; kept untyped to avoid an import cycle
    metric: int = 0


class RoutingTable:
    """Longest-prefix-match forwarding table."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Rows keyed by :attr:`Prefix.key` (one int per prefix, one row per
        #: prefix), in installation order.  Int keys hash at C level, and a
        #: /32 row — always the longest match for its address — is found by
        #: probing ``address.value << 6 | 32`` directly.  The value is the
        #: table's one ``(link, metric)`` record for that pair: a router's
        #: rows toward one destination network all ride its single next hop,
        #: so a fleet router holds thousands of rows over a few dozen
        #: records, and "is this row already in line" is an identity test.
        self._rows: Dict[int, NextHop] = {}
        self._next_hops: Dict[NextHop, NextHop] = {}
        #: Rows shorter than /32 as ``(shift, network >> shift, key)``,
        #: longest first: the only ones a lookup scans, and only when the
        #: exact-match probe misses.  Materialised lazily so builders can
        #: install thousands of rows without a re-sort per insert.
        self._scan: Optional[List[Tuple[int, int, int]]] = None
        self._default: Optional[Route] = None
        #: Memoized destination value (int) -> the link to forward over (None:
        #: no route), so the per-packet :meth:`next_link` is one int-keyed
        #: dict hit.  A /32 row changing drops only its own address; a
        #: shorter row or the default changing drops the whole memo; a call
        #: that changes nothing drops nothing.
        self._cache: dict = {}
        #: Optional miss hook: ``miss_handler(destination) -> bool`` is
        #: invoked when no explicit route matches (before the default-route
        #: fallback).  Returning True means routes were installed and the
        #: match should be retried once.  Lazily materialised routing shards
        #: (repro.routing_policy) hang off this; the per-packet hot path is
        #: untouched because resolved lookups hit the memo above.
        self.miss_handler = None
        self._miss_active = False

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def next_hop(self, link, metric: int = 0) -> NextHop:
        """This table's one shared record for ``(link, metric)``."""
        pair = (link, metric)
        return self._next_hops.setdefault(pair, pair)

    def install(self, prefix: Prefix, link, metric: int = 0) -> bool:
        """Make the row for ``prefix`` read ``(link, metric)``.

        Returns True when a row was added or replaced; an already-matching
        row is left alone (memo untouched).
        """
        key = prefix.key
        pair = (link, metric)  # next_hop(), inlined: this runs once per row
        record = self._next_hops.setdefault(pair, pair)
        if self._rows.get(key) is record:
            return False
        self._rows[key] = record
        self._invalidate(key)
        return True

    def install_rows(self, keys: Iterable[int],
                     records: Iterable[Optional[NextHop]]) -> int:
        """Bulk :meth:`install`: make row ``keys[i]`` read ``records[i]``
        (a :meth:`next_hop` of this table; None leaves the row alone).

        A builder resolves each destination network's next hop once and
        hands over every row of the table in one call; the memo and the
        scan list are dropped once, and only if a row they could have
        answered from changed.  Returns the number of rows added or
        replaced (0: nothing was touched).
        """
        rows = self._rows
        cache = self._cache
        changed = 0
        shorter = False
        for key, record in zip(keys, records):
            if record is None or rows.get(key) is record:
                continue
            rows[key] = record
            changed += 1
            if key & 63 != 32:
                shorter = True
            elif cache:
                cache.pop(key >> 6, None)
        if shorter:
            self._scan = None
            cache.clear()
        return changed

    def add_route(self, prefix: Union[str, Prefix], link, metric: int = 0) -> Route:
        """Add (or replace) a route for ``prefix`` via ``link``."""
        prefix = Prefix.parse(prefix)
        self.install(prefix, link, metric)
        return Route(prefix, link, metric)

    def set_default(self, link, metric: int = 0) -> Route:
        """Install a default route (0.0.0.0/0) via ``link``."""
        self._default = Route(prefix=Prefix.parse("0.0.0.0/0"), link=link, metric=metric)
        self._cache.clear()
        return self._default

    def route_for(self, prefix: Union[str, Prefix]) -> Optional[Route]:
        """The route installed for exactly ``prefix``, if any (no LPM)."""
        prefix = Prefix.parse(prefix)
        record = self._rows.get(prefix.key)
        return None if record is None else Route(prefix, *record)

    def remove_route(self, prefix: Union[str, Prefix]) -> bool:
        """Remove the route for exactly ``prefix``.  Returns True if it existed."""
        key = Prefix.parse(prefix).key
        if self._rows.pop(key, None) is None:
            return False
        self._invalidate(key)
        return True

    def clear(self) -> None:
        """Remove every route, including the default."""
        self._rows.clear()
        self._next_hops.clear()
        self._scan = None
        self._default = None
        self._cache.clear()

    def _invalidate(self, key: int) -> None:
        """Forget what the changed row ``key`` could have answered."""
        if key & 63 == 32:
            self._cache.pop(key >> 6, None)
        else:
            self._scan = None
            self._cache.clear()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _shorter_rows(self) -> List[Tuple[int, int, int]]:
        """(Re)build the scan list: every row shorter than /32, longest
        first, as the shift and the bits an address must show under it."""
        scan = self._scan = sorted(
            ((32 - (key & 63), key >> 6 >> (32 - (key & 63)), key)
             for key in self._rows if key & 63 < 32),
            key=lambda row: row[0])
        return scan

    def _match(self, value: int) -> Optional[int]:
        """Key of the longest explicit row containing address ``value``:
        its /32 if installed, else the first hit among the shorter rows."""
        key = (value << 6) | 32
        if key in self._rows:
            return key
        scan = self._scan
        if scan is None:
            scan = self._shorter_rows()
        for shift, bits, key in scan:
            if value >> shift == bits:
                return key
        return None

    def _resolve(self, destination: IPAddress) -> Optional[int]:
        """Match ``destination`` (miss handler included), memoize the link
        it forwards over and return the matched row's key — None when the
        default route, or nothing, answers."""
        value = destination.value
        key = self._match(value)
        if key is None and self.miss_handler is not None and not self._miss_active:
            self._miss_active = True
            try:
                installed = self.miss_handler(destination)
            finally:
                self._miss_active = False
            if installed:
                key = self._match(value)
        if key is not None:
            self._cache[value] = self._rows[key][0]
        else:
            self._cache[value] = self._default.link if self._default else None
        return key

    def _render(self, key: int) -> Route:
        return Route(Prefix(IPAddress(key >> 6), key & 63), *self._rows[key])

    def lookup(self, destination: Union[str, IPAddress]) -> Optional[Route]:
        """Longest-prefix-match lookup; falls back to the default route."""
        if destination.__class__ is not IPAddress:
            destination = IPAddress.parse(destination)
        if destination.value in self._cache:
            # Resolved before: only the row to render is looked for.
            key = self._match(destination.value)
        else:
            key = self._resolve(destination)
        return self._default if key is None else self._render(key)

    def next_link(self, destination: Union[str, IPAddress]):
        """The link to forward a packet for ``destination`` over, or None."""
        if destination.__class__ is not IPAddress:
            destination = IPAddress.parse(destination)
        link = self._cache.get(destination.value, _MISS)
        if link is _MISS:
            self._resolve(destination)
            link = self._cache[destination.value]
        return link

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def routes(self) -> List[Route]:
        """All explicit routes (excludes the default), longest prefix first,
        then by metric, then in installation order."""
        return sorted(map(self._render, self._rows),
                      key=lambda r: (-r.prefix.length, r.metric))

    @property
    def default_route(self) -> Optional[Route]:
        """The installed default route, if any."""
        return self._default

    def row_count(self) -> int:
        """Number of explicit rows (excludes the default); renders nothing."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows) + (1 if self._default else 0)
