"""Packets: data traffic and AITF control messages share one wire format.

A :class:`Packet` carries

* the usual 5-tuple header fields (src, dst, protocol, ports),
* a size in bytes (drives link serialization and congestion),
* the *route record* shim — the ordered list of border routers the packet has
  crossed, stamped by each border router exactly as the TRIAD-style path
  recording assumed in Section IV-B,
* an optional AITF payload (a filtering request, verification query or
  verification reply) when the packet is a control message, and
* bookkeeping fields (creation time, spoofed flag) used only by the
  metrics layer, never by protocol logic.

The ``spoofed_src`` field records the *true* origin of a spoofed packet so
experiments can account honestly for what ingress filtering would have seen;
AITF nodes themselves never read it.

Packets are the single most-allocated object in the simulator, so the class
is ``__slots__``-based (no per-instance ``__dict__``), route-record stamps
are interned (every packet crossing a router shares one string object per
router name), and :meth:`clone` duplicates a template packet by direct slot
assignment without re-running constructor plumbing.
"""

from __future__ import annotations

import enum
from sys import intern as _intern
from typing import Any, List, Optional, Tuple

from repro.net.address import IPAddress


class Protocol(str, enum.Enum):
    """Transport protocols used by traffic generators and flow labels."""

    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"
    AITF = "aitf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PacketKind(str, enum.Enum):
    """Distinguishes plain data traffic from AITF control messages."""

    DATA = "data"
    FILTERING_REQUEST = "filtering_request"
    VERIFICATION_QUERY = "verification_query"
    VERIFICATION_REPLY = "verification_reply"
    DISCONNECT_NOTICE = "disconnect_notice"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default data packet size in bytes (a full Ethernet frame's worth of payload).
DEFAULT_DATA_SIZE = 1000
#: AITF control messages are small (a flow label, a type and a nonce).
CONTROL_MESSAGE_SIZE = 64

_DATA = PacketKind.DATA
_UDP = Protocol.UDP.value


class Packet:
    """A single packet in flight."""

    __slots__ = ("src", "dst", "protocol", "src_port", "dst_port", "size",
                 "kind", "payload", "created_at", "route_record",
                 "spoofed_src", "ttl", "flow_tag")

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        protocol: str = _UDP,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
        size: int = DEFAULT_DATA_SIZE,
        kind: PacketKind = _DATA,
        payload: Any = None,
        created_at: float = 0.0,
        route_record: Optional[List[str]] = None,
        spoofed_src: Optional[IPAddress] = None,
        ttl: int = 64,
        flow_tag: str = "",
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.src_port = src_port
        self.dst_port = dst_port
        self.size = size
        self.kind = kind
        self.payload = payload
        self.created_at = created_at
        self.route_record = route_record if route_record is not None else []
        self.spoofed_src = spoofed_src
        self.ttl = ttl
        self.flow_tag = flow_tag

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def data(
        cls,
        src: IPAddress,
        dst: IPAddress,
        *,
        protocol: str = _UDP,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
        size: int = DEFAULT_DATA_SIZE,
        created_at: float = 0.0,
        flow_tag: str = "",
        spoofed_src: Optional[IPAddress] = None,
    ) -> "Packet":
        """A plain data packet."""
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            src_port=src_port,
            dst_port=dst_port,
            size=size,
            kind=_DATA,
            created_at=created_at,
            flow_tag=flow_tag,
            spoofed_src=spoofed_src,
        )

    @classmethod
    def control(
        cls,
        src: IPAddress,
        dst: IPAddress,
        kind: PacketKind,
        payload: Any,
        *,
        created_at: float = 0.0,
    ) -> "Packet":
        """An AITF control message (filtering request / verification query / reply)."""
        return cls(
            src=src,
            dst=dst,
            protocol=Protocol.AITF.value,
            size=CONTROL_MESSAGE_SIZE,
            kind=kind,
            payload=payload,
            created_at=created_at,
        )

    # ------------------------------------------------------------------
    # route-record shim
    # ------------------------------------------------------------------
    def stamp_route(self, router_name: str) -> None:
        """Append a border router to the route-record shim.

        Border routers stamp every packet they forward.  Duplicate
        consecutive stamps (a packet bouncing within one AD) are collapsed.
        Stamps are interned so every packet's record shares one string
        object per router.
        """
        router_name = _intern(router_name)
        record = self.route_record
        if not record or record[-1] != router_name:
            record.append(router_name)

    @property
    def recorded_path(self) -> Tuple[str, ...]:
        """The border routers this packet has crossed, in order."""
        return tuple(self.route_record)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_control(self) -> bool:
        """True for AITF protocol messages."""
        return self.kind is not _DATA

    @property
    def is_spoofed(self) -> bool:
        """True when the claimed source differs from the true origin."""
        return self.spoofed_src is not None and self.spoofed_src != self.src

    @property
    def true_source(self) -> IPAddress:
        """The actual origin of the packet (equals ``src`` when not spoofed)."""
        return self.spoofed_src if self.spoofed_src is not None else self.src

    def clone(self) -> "Packet":
        """An independent copy for template-based generation.

        Duplicates every header field by direct slot assignment — no
        constructor defaults, no field re-validation — and gives the copy an
        empty route record.  Packets are mutated in place as they are
        forwarded, so traffic generators build one template per flow and
        clone it per emission.
        """
        packet = Packet.__new__(Packet)
        packet.src = self.src
        packet.dst = self.dst
        packet.protocol = self.protocol
        packet.src_port = self.src_port
        packet.dst_port = self.dst_port
        packet.size = self.size
        packet.kind = self.kind
        packet.payload = self.payload
        packet.created_at = self.created_at
        packet.route_record = []
        packet.spoofed_src = self.spoofed_src
        packet.ttl = self.ttl
        packet.flow_tag = self.flow_tag
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "" if self.kind is _DATA else f" {self.kind.value}"
        return f"Packet({self.src}->{self.dst} {self.protocol}{kind})"
