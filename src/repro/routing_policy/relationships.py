"""AS business relationships (customer–provider and peer–peer).

A :class:`RelationshipMap` annotates the router-level graph with the
Gao–Rexford edge types that drive valley-free route selection: a
customer→provider edge is "uphill", provider→customer is "downhill", and
peer–peer edges are flat.  Adjacency queries return name-sorted tuples so
every consumer sees the same order regardless of the order edges were
declared in — route computation must be byte-identical across builder
insertion order and worker processes.  The solver reads the same thing as
ints (:meth:`RelationshipMap.index`): nodes numbered in name order, so that
comparing two indices compares the names.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple


class RelationshipIndex(NamedTuple):
    """A :class:`RelationshipMap` as ints: node ``i`` is ``names[i]``, and
    ``providers[i]`` / ``customers[i]`` / ``peers[i]`` are its neighbours'
    indices in ascending (= name) order."""

    names: Tuple[str, ...]
    index_of: Dict[str, int]
    providers: Tuple[Tuple[int, ...], ...]
    customers: Tuple[Tuple[int, ...], ...]
    peers: Tuple[Tuple[int, ...], ...]


class RelationshipMap:
    """Customer–provider / peer annotations over router names."""

    def __init__(self) -> None:
        self._providers: Dict[str, Set[str]] = {}
        self._customers: Dict[str, Set[str]] = {}
        self._peers: Dict[str, Set[str]] = {}
        self._index: Optional[RelationshipIndex] = None

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_customer(self, customer: str, provider: str) -> None:
        """Declare ``customer`` buys transit from ``provider``."""
        if customer == provider:
            raise ValueError(f"{customer!r} cannot be its own provider")
        self._check_new_edge(customer, provider)
        self._providers.setdefault(customer, set()).add(provider)
        self._customers.setdefault(provider, set()).add(customer)
        self._index = None

    def add_peer(self, a: str, b: str) -> None:
        """Declare a settlement-free peering between ``a`` and ``b``."""
        if a == b:
            raise ValueError(f"{a!r} cannot peer with itself")
        self._check_new_edge(a, b)
        self._peers.setdefault(a, set()).add(b)
        self._peers.setdefault(b, set()).add(a)
        self._index = None

    def _check_new_edge(self, a: str, b: str) -> None:
        if self.relationship(a, b) is not None:
            raise ValueError(f"{a!r} and {b!r} already have a relationship")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def providers_of(self, name: str) -> Tuple[str, ...]:
        """Providers of ``name``, name-sorted."""
        return tuple(sorted(self._providers.get(name, ())))

    def customers_of(self, name: str) -> Tuple[str, ...]:
        """Customers of ``name``, name-sorted."""
        return tuple(sorted(self._customers.get(name, ())))

    def peers_of(self, name: str) -> Tuple[str, ...]:
        """Peers of ``name``, name-sorted."""
        return tuple(sorted(self._peers.get(name, ())))

    def index(self) -> RelationshipIndex:
        """The int form the solver runs on, built on first use and dropped
        by :meth:`add_customer` / :meth:`add_peer`."""
        if self._index is None:
            names = self.nodes()
            index_of = {name: i for i, name in enumerate(names)}
            self._index = RelationshipIndex(names, index_of, *(
                tuple(tuple(sorted(index_of[n] for n in table.get(name, ())))
                      for name in names)
                for table in (self._providers, self._customers, self._peers)))
        return self._index

    def relationship(self, a: str, b: str) -> Optional[str]:
        """The a→b edge type: "up" (b is a's provider), "down", "peer", None."""
        if b in self._providers.get(a, ()):
            return "up"
        if b in self._customers.get(a, ()):
            return "down"
        if b in self._peers.get(a, ()):
            return "peer"
        return None

    def nodes(self) -> Tuple[str, ...]:
        """Every name that appears in at least one relationship, sorted."""
        names: Set[str] = set()
        names.update(self._providers, self._customers, self._peers)
        return tuple(sorted(names))

    def edge_counts(self) -> Dict[str, int]:
        """Undirected edge counts by relationship type."""
        transit = sum(len(v) for v in self._providers.values())
        peering = sum(len(v) for v in self._peers.values()) // 2
        return {"customer_provider": transit, "peer_peer": peering}

    def validate_path(self, path: Iterable[str]) -> bool:
        """True when ``path`` is valley-free: uphill*, at most one peer
        hop, then downhill* (Gao–Rexford export rules)."""
        state = "up"  # up -> peer -> down
        previous = None
        for name in path:
            if previous is not None:
                rel = self.relationship(previous, name)
                if rel is None:
                    return False
                if rel == "up":
                    if state != "up":
                        return False
                elif rel == "peer":
                    if state != "up":
                        return False
                    state = "down"
                else:  # down
                    state = "down"
            previous = name
        return True
