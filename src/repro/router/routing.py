"""Static longest-prefix-match routing.

Routing in the reproduction is deliberately static: topology builders compute
shortest paths once (BGP convergence is out of scope for the paper) and
install prefix routes on every node.  The table supports a default route so
stub networks can simply point "everything else" at their provider, which is
how real enterprise networks in the paper's Figure 1 are wired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.net.address import IPAddress, Prefix

#: Cache-miss sentinel (None is a legal cached result: "no route").
_MISS = object()


@dataclass
class Route:
    """One routing entry: a destination prefix and the link to forward over."""

    prefix: Prefix
    link: object  # repro.net.link.Link; kept untyped to avoid an import cycle
    metric: int = 0

    def matches(self, destination: IPAddress) -> bool:
        """True when ``destination`` falls inside the route's prefix."""
        return self.prefix.contains(destination)


class RoutingTable:
    """Longest-prefix-match forwarding table."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Rows keyed by :attr:`Prefix.key` (one int per prefix, one row per
        #: prefix), in installation order.  Int keys hash at C level, and a
        #: /32 row — always the longest match for its address — is found by
        #: probing ``address.value << 6 | 32`` directly.
        self._rows: Dict[int, Route] = {}
        #: Rows shorter than /32, longest first: the only ones a lookup
        #: scans, and only when the exact-match probe misses.  Materialised
        #: lazily so builders can install thousands of rows without a
        #: re-sort per insert.
        self._scan: Optional[List[Route]] = None
        self._default: Optional[Route] = None
        #: Memoized destination value (int) -> route, so the per-packet
        #: lookup is one int-keyed dict hit.  A /32 row changing drops only
        #: its own address; a shorter row or the default changing drops the
        #: whole memo; a call that changes nothing drops nothing.
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
    def install(self, prefix: Prefix, link, metric: int = 0) -> bool:
        """Make the row for ``prefix`` read ``(link, metric)``.

        Returns True when a row was added or replaced; an already-matching
        row is left alone (same :class:`Route` object, memo untouched).
        """
        rows = self._rows
        key = prefix.key
        row = rows.get(key)
        if row is not None and row.link is link and row.metric == metric:
            return False
        rows[key] = Route(prefix, link, metric)
        self._invalidate(prefix)
        return True

    def add_route(self, prefix: Union[str, Prefix], link, metric: int = 0) -> Route:
        """Add (or replace) a route for ``prefix`` via ``link``."""
        prefix = Prefix.parse(prefix)
        self.install(prefix, link, metric)
        return self._rows[prefix.key]

    def set_default(self, link, metric: int = 0) -> Route:
        """Install a default route (0.0.0.0/0) via ``link``."""
        self._default = Route(prefix=Prefix.parse("0.0.0.0/0"), link=link, metric=metric)
        self._cache.clear()
        return self._default

    def route_for(self, prefix: Union[str, Prefix]) -> Optional[Route]:
        """The route installed for exactly ``prefix``, if any (no LPM)."""
        return self._rows.get(Prefix.parse(prefix).key)

    def remove_route(self, prefix: Union[str, Prefix]) -> bool:
        """Remove the route for exactly ``prefix``.  Returns True if it existed."""
        prefix = Prefix.parse(prefix)
        if self._rows.pop(prefix.key, None) is None:
            return False
        self._invalidate(prefix)
        return True

    def clear(self) -> None:
        """Remove every route, including the default."""
        self._rows.clear()
        self._scan = None
        self._default = None
        self._cache.clear()

    def _invalidate(self, prefix: Prefix) -> None:
        """Forget what the changed row for ``prefix`` could have answered."""
        if prefix.length == 32:
            self._cache.pop(prefix.network.value, None)
        else:
            self._scan = None
            self._cache.clear()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _match(self, destination: IPAddress) -> Optional[Route]:
        """The longest explicit row containing ``destination``: its /32 if
        installed, else the first hit among the shorter rows."""
        route = self._rows.get((destination.value << 6) | 32)
        if route is not None:
            return route
        scan = self._scan
        if scan is None:
            scan = self._scan = sorted(
                (r for r in self._rows.values() if r.prefix.length < 32),
                key=lambda r: -r.prefix.length,
            )
        for candidate in scan:
            if candidate.matches(destination):
                return candidate
        return None

    def lookup(self, destination: Union[str, IPAddress]) -> Optional[Route]:
        """Longest-prefix-match lookup; falls back to the default route."""
        if destination.__class__ is not IPAddress:
            destination = IPAddress.parse(destination)
        route = self._cache.get(destination.value, _MISS)
        if route is not _MISS:
            return route
        route = self._match(destination)
        if route is None and self.miss_handler is not None and not self._miss_active:
            self._miss_active = True
            try:
                installed = self.miss_handler(destination)
            finally:
                self._miss_active = False
            if installed:
                route = self._match(destination)
        if route is None:
            route = self._default
        self._cache[destination.value] = route
        return route

    def next_link(self, destination: Union[str, IPAddress]):
        """The link to forward a packet for ``destination`` over, or None."""
        if destination.__class__ is IPAddress:
            route = self._cache.get(destination.value, _MISS)
            if route is not _MISS:
                return route.link if route is not None else None
        route = self.lookup(destination)
        return route.link if route is not None else None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def routes(self) -> List[Route]:
        """All explicit routes (excludes the default), longest prefix first,
        then by metric, then in installation order."""
        return sorted(self._rows.values(),
                      key=lambda r: (-r.prefix.length, r.metric))

    @property
    def default_route(self) -> Optional[Route]:
        """The installed default route, if any."""
        return self._default

    def __len__(self) -> int:
        return len(self._rows) + (1 if self._default else 0)
