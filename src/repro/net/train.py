"""Packet trains: many homogeneous packets travelling as one object.

Fleet-scale scenarios (hundreds of ASes, a thousand zombies) generate
millions of packets whose headers are all identical — only their emission
times differ, and those differ by a *constant* inter-packet interval.  A
:class:`PacketTrain` exploits that: it carries one template packet, a count
and the interval, and flows through links, queues and routers as a single
simulator event.  Every component it crosses multiplies its per-packet
accounting by ``count`` and computes serialization timing in closed form,
so the per-packet Python cost disappears from the hot path.

Routers and hosts do not have a second code path for trains: the node data
path in :mod:`repro.router.nodes` is written once over "``count`` copies of
this packet", and a train passes its template, its count and itself.
Wherever a decision genuinely is per-packet the train *splits* or *scales*
instead of approximating silently:

* a wire-speed filter expiring mid-train blocks only the leading packets —
  :meth:`repro.router.FilterTable.blocks_train` returns the blocked prefix
  and the remainder re-enters the router when the filter has lapsed;
* a traffic conditioner (Pushback rate limiters) returns how many of the
  train's packets pass and the router scales the count, keeping the span;
* generators whose packets differ per emission draw once per train (a
  spoofed flood rotates its forged source per train) or pack their drawn
  arrivals into one train (Poisson gaps; interval = mean drawn gap).

Trains exist only when an experiment opts in (``ExperimentSpec.engine`` =
``{"mode": "train"}``); the default per-packet engine never creates one and
stays byte-identical.
"""

from __future__ import annotations

from repro.net.packet import Packet


class PacketTrain:
    """``count`` copies of ``template``, spaced ``interval`` seconds apart.

    The template is a live :class:`~repro.net.packet.Packet` that is mutated
    in place as the train crosses the network (TTL, route record), exactly
    as an individual packet would be; a train is never copied per hop.
    ``count`` and ``interval`` are rewritten by congested pipes (drops
    shrink the count, serialization compresses the spacing) and by filter
    splits, so a train object describes the *current* shape of the burst,
    not the shape it was emitted with.
    """

    __slots__ = ("template", "count", "interval")

    def __init__(self, template: Packet, count: int, interval: float) -> None:
        if count < 1:
            raise ValueError(f"a train needs at least one packet, got {count}")
        if interval < 0:
            raise ValueError(f"interval must be non-negative, got {interval}")
        self.template = template
        self.count = count
        self.interval = interval

    @property
    def size(self) -> int:
        """Per-packet size in bytes (every packet in a train is identical)."""
        return self.template.size

    @property
    def total_bytes(self) -> int:
        """Bytes carried by the whole train."""
        return self.count * self.template.size

    @property
    def span(self) -> float:
        """Seconds between the first and the last packet's nominal times."""
        return (self.count - 1) * self.interval

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PacketTrain({self.count} x {self.template!r}, "
                f"dt={self.interval:.6g}s)")
