"""The 3-way handshake used to verify filtering requests (Section II-E).

When a gateway receives a request to block a flow from A to V, it must make
sure the request really comes from a node on the A→V path before it installs
a filter — otherwise a malicious node anywhere on the Internet could blackhole
other people's traffic.  The handshake:

1. the gateway receives the filtering request;
2. the gateway sends a *verification query* (flow label + fresh nonce) to V;
3. V answers with a *verification reply* echoing the label and nonce.

Only nodes on the A→V path can observe the query (off-path monitoring is
assumed impossible, Section II-F), so a correct echo proves the requestor can
see that path's traffic — which is exactly the set of nodes that could
already disrupt the flow by dropping packets (Section III-B).

:class:`HandshakeManager` keeps the per-request pending state on the querying
gateway: the nonce it chose, the timeout, and what to do on success/failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.messages import FilteringRequest, VerificationQuery, VerificationReply
from repro.net.address import IPAddress
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.randomness import SeededRandom


@dataclass
class PendingVerification:
    """One outstanding verification query."""

    request: FilteringRequest
    nonce: int
    on_confirmed: Callable[[FilteringRequest], None]
    on_failed: Callable[[FilteringRequest, str], None]
    timer: Timer


class HandshakeManager:
    """Pending-verification bookkeeping for a gateway."""

    def __init__(self, sim: Simulator, rng: Optional[SeededRandom] = None,
                 timeout: float = 1.0) -> None:
        self._sim = sim
        self._rng = rng or SeededRandom(0, name="handshake")
        self.timeout = timeout
        self._pending: Dict[int, PendingVerification] = {}
        # statistics
        self.confirmed = 0
        self.rejected = 0
        self.timed_out = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of verifications still waiting for a reply."""
        return len(self._pending)

    def is_pending(self, request_id: int) -> bool:
        """True when a verification for this request is outstanding."""
        return request_id in self._pending

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def begin(
        self,
        request: FilteringRequest,
        querier: IPAddress,
        on_confirmed: Callable[[FilteringRequest], None],
        on_failed: Callable[[FilteringRequest, str], None],
    ) -> VerificationQuery:
        """Start a verification; returns the query the caller must send to the victim.

        ``querier`` is the address of the gateway running the verification —
        it goes into the query so the victim knows where to send the reply.
        A duplicate ``begin`` for a request already being verified reuses the
        existing nonce (re-sending the same query is harmless; inventing a new
        nonce would let a late reply to the old one be misinterpreted).
        """
        existing = self._pending.get(request.request_id)
        if existing is not None:
            return VerificationQuery(
                label=request.label,
                nonce=existing.nonce,
                querier=querier,
                request_id=request.request_id,
            )
        nonce = self._rng.nonce()
        timer = Timer(self._sim, self._expire, request.request_id)
        pending = PendingVerification(
            request=request,
            nonce=nonce,
            on_confirmed=on_confirmed,
            on_failed=on_failed,
            timer=timer,
        )
        self._pending[request.request_id] = pending
        timer.start(self.timeout)
        return VerificationQuery(
            label=request.label,
            nonce=nonce,
            querier=querier,
            request_id=request.request_id,
        )

    def handle_reply(self, reply: VerificationReply) -> bool:
        """Match a reply against pending verifications.

        Returns True when the reply settled a pending verification (whether
        it confirmed or rejected it); False for stray or stale replies.
        """
        pending = self._pending.get(reply.request_id)
        if pending is None:
            return False
        if reply.nonce != pending.nonce or reply.label != pending.request.label:
            # Wrong nonce or label: either a forgery or corruption.  The
            # verification stays pending until its real reply or timeout.
            return False
        pending.timer.cancel()
        del self._pending[reply.request_id]
        if reply.confirmed:
            self.confirmed += 1
            pending.on_confirmed(pending.request)
        else:
            self.rejected += 1
            pending.on_failed(pending.request, "victim denied the request")
        return True

    def cancel(self, request_id: int) -> None:
        """Abandon a pending verification without invoking callbacks."""
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.timer.cancel()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _expire(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        self.timed_out += 1
        pending.on_failed(pending.request, "verification timed out")
