"""Directory of AITF nodes.

The route-record shim identifies border routers by name; to *send* a
filtering request to one of them an agent needs its address.  In a real
deployment that mapping is just the router's own address carried in the shim
(TRIAD records addresses); here we keep names in the shim for readability and
resolve them through this directory, which topology builders populate as they
create nodes.

The directory also answers "which node owns this address", which the
attacker's gateway uses to find the access link of an attacking client.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.net.address import IPAddress
from repro.router.nodes import NetworkNode


class NodeDirectory:
    """Name and address resolution for every AITF node in a scenario."""

    def __init__(self) -> None:
        self._by_name: Dict[str, NetworkNode] = {}
        #: ``address.value`` -> owning node, filled at :meth:`register` and
        #: by scan hits, so :meth:`node_owning` is one dict probe instead of
        #: an ``owns_address`` pass over every registered node.
        self._by_address: Dict[int, NetworkNode] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Add a node; re-registering the same name replaces the entry."""
        replaced = self._by_name.get(node.name)
        self._by_name[node.name] = node
        if replaced is not None and replaced is not node:
            # The newcomer takes the old entry's place in scan order.
            self._by_address.clear()
            indexed = self._by_name.values()
        else:
            indexed = (node,)
        for owner in indexed:
            for address in owner.addresses:
                # First registered wins, as in the scan the index stands in for.
                self._by_address.setdefault(address.value, owner)

    def register_all(self, nodes: Iterable[NetworkNode]) -> None:
        """Register many nodes at once."""
        for node in nodes:
            self.register(node)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[NetworkNode]:
        """The node registered under ``name``, or None."""
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def nodes(self) -> List[NetworkNode]:
        """Every registered node."""
        return list(self._by_name.values())

    def address_of(self, name: str) -> Optional[IPAddress]:
        """Primary address of the named node, or None when unknown."""
        node = self._by_name.get(name)
        if node is None or not node.addresses:
            return None
        return node.address

    def node_owning(self, address: Union[str, IPAddress]) -> Optional[NetworkNode]:
        """The node that owns ``address`` exactly (not prefix-served)."""
        address = IPAddress.parse(address)
        node = self._by_address.get(address.value)
        if node is not None:
            return node
        # Not indexed: an address added to a node after it was registered.
        for node in self._by_name.values():
            if node.owns_address(address):
                self._by_address[address.value] = node
                return node
        return None

    def name_of(self, address: Union[str, IPAddress]) -> Optional[str]:
        """Name of the node owning ``address``, or None."""
        node = self.node_owning(address)
        return node.name if node is not None else None
