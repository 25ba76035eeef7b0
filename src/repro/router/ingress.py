"""Ingress (anti-spoofing) filtering at border routers.

Section III-A: "AITF offers an economic incentive to providers to protect
their network from the inside by employing appropriate ingress filtering.  If
a provider pro-actively prevents spoofed flows from exiting its network, it
lowers the probability of an attack being launched from its own network."

The victim-gateway side of request verification (Section II-E) is also
"trivial with appropriate ingress filtering": the gateway knows which
prefixes its own clients legitimately use, so a filtering request claiming to
come from one of them can be checked at the first hop.

:class:`IngressFilter` implements both uses: it maps each client-facing
link to the set of prefixes legitimately sourced behind it and drops (or just
flags, when run in audit mode) packets whose source address does not belong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.net.address import IPAddress, Prefix
from repro.net.packet import Packet


@dataclass(slots=True)
class IngressStats:
    """Counters for one ingress-filtering instance."""

    packets_passed: int = 0
    spoofed_detected: int = 0
    spoofed_dropped: int = 0

    @property
    def packets_checked(self) -> int:
        """Every checked packet either passed or was detected as spoofed."""
        return self.packets_passed + self.spoofed_detected


#: The policy and the counters of every filter that has no policy: only
#: :meth:`IngressFilter.check` with a policy counts, so a filter takes
#: both of its own at its first :meth:`~IngressFilter.allow`.
_NO_POLICY: Dict[object, List[Prefix]] = {}
_NO_STATS = IngressStats()


class IngressFilter:
    """Per-link source-prefix validation.

    Parameters
    ----------
    enforce:
        When True (the default) spoofed packets are reported as droppable;
        when False the filter only counts them (audit mode), which lets the
        ingress-filtering ablation quantify how much spoofing *would* have
        been caught.
    """

    def __init__(self, enforce: bool = True, name: str = "") -> None:
        self.enforce = enforce
        self.name = name
        self.stats = _NO_STATS
        #: Link -> the prefixes legitimately sourced behind it.
        self._allowed: Dict[object, List[Prefix]] = _NO_POLICY

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def allow(self, link, prefix: Union[str, Prefix]) -> None:
        """Declare that ``prefix`` is legitimately sourced behind ``link``."""
        if self._allowed is _NO_POLICY:
            self._allowed = {}
            self.stats = IngressStats()
        self._allowed.setdefault(link, []).append(Prefix.parse(prefix))

    def allowed_prefixes(self, link) -> List[Prefix]:
        """Prefixes accepted from ``link`` (empty list means 'no policy', accept all)."""
        return list(self._allowed.get(link, []))

    def has_policy_for(self, link) -> bool:
        """True when at least one prefix has been registered for ``link``."""
        return bool(self._allowed.get(link))

    # ------------------------------------------------------------------
    # packet path
    # ------------------------------------------------------------------
    def check(self, packet: Packet, link, count: int = 1) -> bool:
        """Validate the claimed source of ``count`` identical packets against
        the link's policy.

        Returns True when they should be forwarded.  Links without a
        registered policy (e.g. provider-facing uplinks) are not checked —
        ingress filtering only applies at the customer edge.  A packet train
        shares one claimed source, so the verdict is made once and every
        counter advances by ``count`` — the statistics a per-packet walk
        would have accumulated.
        """
        prefixes = self._allowed.get(link)
        return not prefixes or self.passes(packet, prefixes, count)

    def passes(self, packet: Packet, prefixes: List[Prefix],
               count: int = 1) -> bool:
        """:meth:`check` against the link's non-empty policy ``prefixes``,
        already looked up (``BorderRouter.receive_packet`` probes the
        policy and passes a matching source itself, and comes here only for
        a source that matches none of ``prefixes``)."""
        stats = self.stats
        src_value = packet.src.value
        for prefix in prefixes:
            if (src_value & prefix._mask) == prefix._network_value:
                stats.packets_passed += count
                return True
        stats.spoofed_detected += count
        if self.enforce:
            stats.spoofed_dropped += count
            return False
        return True

    def validates_source(self, source: Union[str, IPAddress], link) -> bool:
        """True when ``source`` is a legitimate origin behind ``link``.

        Used by the victim's gateway to verify filtering requests from its
        own clients without a handshake (Section II-E).
        """
        prefixes = self._allowed.get(link)
        if not prefixes:
            return False
        source = IPAddress.parse(source)
        return any(prefix.contains(source) for prefix in prefixes)
