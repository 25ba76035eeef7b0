"""Malicious use of AITF itself.

Section III-B: "The greatest challenge with automatic filtering mechanisms is
that compromised node M may maliciously request the blocking of traffic from
A to V, thereby disrupting their communication."  The security experiment
(E8) needs nodes that actually try this:

* :class:`RequestForger` — a host that sends forged filtering requests
  (optionally with a spoofed source address) asking gateways to block a
  legitimate flow between two other parties.  With verification enabled the
  3-way handshake defeats it, because the forger cannot see (and therefore
  cannot echo) the nonce sent to the real victim.
* :class:`CompromisedRouterBehaviour` — an on-path border router that forges
  verification replies (it *can* see the nonce), demonstrating the paper's
  honest caveat: an on-path compromised router can disrupt the flow, but it
  could have done so anyway by simply dropping packets.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.core.messages import FilteringRequest, RequestRole, VerificationQuery
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, PacketKind
from repro.router.nodes import BorderRouter, Host


class RequestForger:
    """A malicious host that asks gateways to block other people's traffic."""

    def __init__(self, host: Host, *, spoof_source: Optional[Union[str, IPAddress]] = None,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.spoof_source = IPAddress.parse(spoof_source) if spoof_source else None
        self.timeout = timeout
        self.requests_sent = 0

    def forge_request(
        self,
        target_gateway: Union[str, IPAddress],
        label: FlowLabel,
        *,
        claimed_requestor: str = "",
        claimed_path: Tuple[str, ...] = (),
        role: RequestRole = RequestRole.TO_ATTACKER_GATEWAY,
        victim: Optional[Union[str, IPAddress]] = None,
    ) -> FilteringRequest:
        """Send a forged filtering request to ``target_gateway``.

        ``label`` is the legitimate flow (A -> V) the forger wants blackholed.
        The forger claims whatever requestor name, attack path and role it
        likes; the question the experiment answers is whether any combination
        gets the filter installed.
        """
        victim_address = IPAddress.parse(victim) if victim is not None else None
        if victim_address is None and isinstance(label.dst, IPAddress):
            victim_address = label.dst
        request = FilteringRequest(
            label=label,
            timeout=self.timeout,
            role=role,
            attack_path=claimed_path,
            round_number=max(1, len(claimed_path) and 1),
            requestor=claimed_requestor or self.host.name,
            victim=victim_address,
        )
        source = self.spoof_source or self.host.address
        packet = Packet(
            src=source,
            dst=IPAddress.parse(target_gateway),
            protocol="aitf",
            size=64,
            kind=PacketKind.FILTERING_REQUEST,
            payload=request,
            created_at=self.host.sim.now,
            spoofed_src=self.host.address if self.spoof_source else None,
        )
        self.host.send(packet)
        self.requests_sent += 1
        return request


class CompromisedRouterBehaviour:
    """An on-path router abusing its position to forge handshake replies.

    Attach it to a border router that legitimately routes the A -> V flow.
    The behaviour snoops verification queries addressed to V (it sees them
    because it forwards them), answers them itself with the correct nonce,
    and optionally suppresses the real query so V never learns about it.

    This is the case the paper concedes (Section III-B): such a router can
    disrupt A -> V communication through AITF — but it could equally well
    just drop the packets, so AITF adds no new power.
    """

    def __init__(self, router: BorderRouter, *, suppress_query: bool = True) -> None:
        self.router = router
        self.suppress_query = suppress_query
        self.replies_forged = 0
        self._original_handler = router.handle_packet
        router.handle_packet = self._intercept  # type: ignore[assignment]

    def _intercept(self, packet: Packet, link, *train_args) -> None:
        if packet.kind is PacketKind.VERIFICATION_QUERY and not self.router.owns_address(packet.dst):
            query: VerificationQuery = packet.payload
            reply = query.matching_reply(confirmed=True, responder=packet.dst)
            forged = Packet.control(
                src=packet.dst,   # impersonate the victim
                dst=query.querier,
                kind=PacketKind.VERIFICATION_REPLY,
                payload=reply,
                created_at=self.router.sim.now,
            )
            self.router.send(forged)
            self.replies_forged += 1
            if self.suppress_query:
                return
        self._original_handler(packet, link, *train_args)

    def detach(self) -> None:
        """Restore the router's normal behaviour."""
        self.router.handle_packet = self._original_handler  # type: ignore[assignment]
