"""IPv4-style addressing and CIDR prefixes.

AITF flow labels wildcard on source/destination addresses, the attacker's
gateway polices which prefixes its clients may legitimately source traffic
from (ingress filtering, Section III-A), and topology builders need to hand
out non-overlapping prefixes to enterprise networks and ISPs.  A tiny
purpose-built address class keeps all of that explicit and avoids dragging
in the heavier :mod:`ipaddress` semantics we do not need (scopes, IPv6,
interface objects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

_MAX_IPV4 = (1 << 32) - 1


def _parse_dotted(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True, order=True)
class IPAddress:
    """A 32-bit IPv4-style address.

    Immutable and hashable so addresses can key filter tables, shadow caches
    and routing entries directly.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise ValueError(f"address out of range: {self.value}")

    @classmethod
    def parse(cls, text: Union[str, int, "IPAddress"]) -> "IPAddress":
        """Build an address from dotted-quad text, an int, or another address."""
        if isinstance(text, IPAddress):
            return text
        if isinstance(text, int):
            return cls(text)
        return cls(_parse_dotted(text))

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPAddress":
        return IPAddress(self.value + offset)

    def in_prefix(self, prefix: "Prefix") -> bool:
        """True when this address falls inside ``prefix``."""
        return prefix.contains(self)

    # Addresses key filter-table indexes, routing caches and host address
    # sets, so equality and hashing sit on the per-packet fast path.  The
    # dataclass-generated versions build a (value,) tuple per call; these
    # go straight to the int.
    def __hash__(self) -> int:
        return hash(self.value)

    def __eq__(self, other) -> bool:
        if other.__class__ is IPAddress:
            return self.value == other.value
        return NotImplemented


@dataclass(frozen=True)
class Prefix:
    """A CIDR prefix (network address + mask length)."""

    network: IPAddress
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        # The mask is consulted per packet by ingress filters and routing, so
        # it is computed once here (not a field: equality and repr stay on
        # (network, length) alone; object.__setattr__ because frozen).
        mask = (_MAX_IPV4 << (32 - self.length)) & _MAX_IPV4 if self.length else 0
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_network_value", self.network.value)
        #: ``network << 6 | length``: one int that identifies the prefix, so
        #: routing tables key their rows on it and an exact-match probe for
        #: an address is ``value << 6 | 32`` with no object built or hashed.
        object.__setattr__(self, "key", (self.network.value << 6) | self.length)
        if self.network.value & ~mask & _MAX_IPV4:
            raise ValueError(
                f"network {self.network} has host bits set for /{self.length}"
            )

    @classmethod
    def parse(cls, text: Union[str, "Prefix"]) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        if isinstance(text, Prefix):
            return text
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"prefix missing length: {text!r}")
        return cls(IPAddress.parse(addr_text), int(len_text))

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        return self._mask

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, address: Union[IPAddress, str, int]) -> bool:
        """True when ``address`` falls inside this prefix."""
        if address.__class__ is IPAddress:
            return (address.value & self._mask) == self._network_value
        addr = IPAddress.parse(address)
        return (addr.value & self._mask) == self._network_value

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two prefixes share any address."""
        shorter, longer = (self, other) if self.length <= other.length else (other, self)
        return shorter.contains(longer.network)

    def host(self, index: int) -> IPAddress:
        """The ``index``-th address inside the prefix (0 = network address)."""
        if not 0 <= index < self.num_addresses:
            raise ValueError(
                f"host index {index} outside /{self.length} prefix ({self.num_addresses} addresses)"
            )
        return IPAddress(self.network.value + index)

    def hosts(self) -> Iterator[IPAddress]:
        """Iterate over usable host addresses (skips network and broadcast for /30 and shorter)."""
        start, end = 0, self.num_addresses
        if self.length <= 30:
            start, end = 1, self.num_addresses - 1
        for index in range(start, end):
            yield IPAddress(self.network.value + index)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Split the prefix into equal-size subnets of ``new_length``."""
        if new_length < self.length or new_length > 32:
            raise ValueError(
                f"cannot split /{self.length} into /{new_length} subnets"
            )
        step = 1 << (32 - new_length)
        for base in range(self.network.value, self.network.value + self.num_addresses, step):
            yield Prefix(IPAddress(base), new_length)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"


class AddressAllocator:
    """Hands out non-overlapping prefixes and host addresses to topology builders.

    The allocator walks a parent prefix (default ``10.0.0.0/8``) and carves
    consecutive child prefixes from it.  It never reuses space, so any two
    networks built by the same allocator are guaranteed disjoint — which the
    ingress-filtering and spoofing experiments rely on.
    """

    def __init__(self, root: Union[str, Prefix] = "10.0.0.0/8") -> None:
        self._root = Prefix.parse(root)
        self._next = self._root.network.value
        self._end = self._root.network.value + self._root.num_addresses

    @property
    def root(self) -> Prefix:
        """The address pool being carved up."""
        return self._root

    def allocate_prefix(self, length: int = 24) -> Prefix:
        """Allocate the next aligned prefix of the requested length."""
        if length < self._root.length or length > 32:
            raise ValueError(
                f"requested /{length} outside allocator root /{self._root.length}"
            )
        size = 1 << (32 - length)
        # Align the cursor to the prefix size.
        aligned = (self._next + size - 1) & ~(size - 1)
        if aligned + size > self._end:
            raise RuntimeError(
                f"address pool {self._root} exhausted allocating a /{length}"
            )
        self._next = aligned + size
        return Prefix(IPAddress(aligned), length)

    def allocate_host(self, prefix: Optional[Prefix] = None) -> IPAddress:
        """Allocate a single host address, optionally inside an existing prefix."""
        if prefix is None:
            return self.allocate_prefix(32).network
        # Track per-prefix host cursors lazily.
        if not hasattr(self, "_host_cursors"):
            self._host_cursors = {}
        cursor = self._host_cursors.get(prefix, 1)
        if cursor >= prefix.num_addresses - 1 and prefix.length <= 30:
            raise RuntimeError(f"prefix {prefix} has no free host addresses")
        address = prefix.host(cursor)
        self._host_cursors[prefix] = cursor + 1
        return address
