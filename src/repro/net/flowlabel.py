"""Flow labels: the wildcarded classifiers carried by AITF filtering requests.

Section II-A defines a flow label as "a set of values that captures the common
characteristics of a traffic flow — e.g. all packets with IP source address S
and IP destination address D".  A filtering request asks to block all packets
matching a (possibly wildcarded) flow label for the next T seconds.

The label here supports wildcards on every field and prefix-based matching on
the source and destination, which is what lets the benchmarks exercise
protocol-switching attackers (same source, different protocol/ports) and
subnet-wide filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.net.address import IPAddress, Prefix

AddressPattern = Union[IPAddress, Prefix, None]


def _normalize_pattern(value: Union[str, int, IPAddress, Prefix, None]) -> AddressPattern:
    if value is None:
        return None
    if isinstance(value, (IPAddress, Prefix)):
        return value
    if isinstance(value, str) and "/" in value:
        return Prefix.parse(value)
    return IPAddress.parse(value)


def _pattern_covers(outer: AddressPattern, inner: AddressPattern) -> bool:
    """True when every address matched by ``inner`` is matched by ``outer``."""
    if outer is None:
        return True
    if inner is None:
        return False
    if isinstance(outer, IPAddress):
        if isinstance(inner, IPAddress):
            return outer == inner
        return inner.length == 32 and inner.network == outer
    # outer is a Prefix
    if isinstance(inner, IPAddress):
        return outer.contains(inner)
    return outer.length <= inner.length and outer.contains(inner.network)


@dataclass(frozen=True)
class FlowLabel:
    """A wildcarded packet classifier.

    ``None`` in any field means "match anything".  The source and destination
    may be single addresses or prefixes.
    """

    src: AddressPattern = None
    dst: AddressPattern = None
    protocol: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def between(
        cls,
        src: Union[str, int, IPAddress, Prefix, None],
        dst: Union[str, int, IPAddress, Prefix, None],
        *,
        protocol: Optional[str] = None,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
    ) -> "FlowLabel":
        """The common case: block traffic from ``src`` to ``dst``."""
        return cls(
            src=_normalize_pattern(src),
            dst=_normalize_pattern(dst),
            protocol=protocol,
            src_port=src_port,
            dst_port=dst_port,
        )

    @classmethod
    def to_destination(cls, dst: Union[str, IPAddress, Prefix]) -> "FlowLabel":
        """Match all traffic toward a destination, regardless of source."""
        return cls(src=None, dst=_normalize_pattern(dst))

    @classmethod
    def from_source(cls, src: Union[str, IPAddress, Prefix]) -> "FlowLabel":
        """Match all traffic from a source, regardless of destination."""
        return cls(src=_normalize_pattern(src), dst=None)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def matches(self, packet) -> bool:
        """True when ``packet`` (anything with src/dst/protocol/ports) matches this label.

        This runs once per forwarded packet per candidate filter, so the
        pattern helpers are inlined: the common concrete-address case is a
        single comparison per field.
        """
        src = self.src
        if src is not None:
            packet_src = packet.src
            if src.__class__ is Prefix:
                if packet_src is None or not src.contains(packet_src):
                    return False
            elif packet_src != src:
                return False
        dst = self.dst
        if dst is not None:
            packet_dst = packet.dst
            if dst.__class__ is Prefix:
                if packet_dst is None or not dst.contains(packet_dst):
                    return False
            elif packet_dst != dst:
                return False
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.src_port is not None and packet.src_port != self.src_port:
            return False
        if self.dst_port is not None and packet.dst_port != self.dst_port:
            return False
        return True

    def covers(self, other: "FlowLabel") -> bool:
        """True when every packet matched by ``other`` is also matched by ``self``.

        Used to de-duplicate filtering requests: a gateway that already holds
        a broader filter need not install a narrower one.
        """
        if not _pattern_covers(self.src, other.src):
            return False
        if not _pattern_covers(self.dst, other.dst):
            return False
        if self.protocol is not None and self.protocol != other.protocol:
            return False
        if self.src_port is not None and self.src_port != other.src_port:
            return False
        if self.dst_port is not None and self.dst_port != other.dst_port:
            return False
        return True

    @property
    def exact_key(self):
        """A 64-bit ``src<<32 | dst`` integer when both ends are concrete.

        A label whose source and destination are single addresses (or /32
        prefixes, which match exactly one address) can be indexed by this
        key in a hash table, giving filter tables an O(1) per-packet lookup
        — and an ``int`` key hashes in C, with no per-probe Python calls.
        Returns ``None`` for labels that wildcard or prefix-match either
        end — those stay on the residual scan path.
        """
        src, dst = self.src, self.dst
        if isinstance(src, Prefix):
            if src.length != 32:
                return None
            src = src.network
        if isinstance(dst, Prefix):
            if dst.length != 32:
                return None
            dst = dst.network
        if src is None or dst is None:
            return None
        return (src.value << 32) | dst.value

    @property
    def wildcard_count(self) -> int:
        """Number of fully wildcarded fields (used to sort filters most-specific-first)."""
        return sum(
            1
            for field in (self.src, self.dst, self.protocol, self.src_port, self.dst_port)
            if field is None
        )

    @property
    def is_fully_wildcarded(self) -> bool:
        """True for the match-everything label (never legal in a filtering request)."""
        return self.wildcard_count == 5

    def __str__(self) -> str:
        def show(value, label):
            return f"{label}={value}" if value is not None else f"{label}=*"

        parts = [
            show(self.src, "src"),
            show(self.dst, "dst"),
            show(self.protocol, "proto"),
            show(self.src_port, "sport"),
            show(self.dst_port, "dport"),
        ]
        return "FlowLabel(" + ", ".join(parts) + ")"
