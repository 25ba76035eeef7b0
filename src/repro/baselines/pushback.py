"""The Pushback baseline (Mahajan et al., [MBF+01]).

Pushback is the prior automatic mechanism the paper positions AITF against
(Section V):

* a congested router identifies the high-bandwidth *aggregate* responsible
  (here: all traffic toward the victim's address) and rate-limits it locally;
* if, after several seconds, it is still dropping a significant share of the
  aggregate, it asks its adjacent *upstream* routers to rate-limit the
  aggregate too;
* the recipients do the same, recursively, hop by hop toward the sources.

Two properties matter for the comparison (experiment E9):

1. propagation is hop-by-hop, so the number of routers involved grows with
   the path length, whereas an AITF round involves exactly four nodes;
2. the rate limit applies to the whole aggregate — legitimate traffic to the
   victim inside the aggregate is squeezed together with the attack,
   whereas AITF blocks the specific undesired flows.

The implementation installs a rate-limiting conditioner per aggregate on each
participating border router and propagates requests upstream over the same
control channel AITF uses (control packets), with the hop-by-hop recursion
driven by each router's own congestion observation.  The limiter drops
probabilistically in proportion to how far the aggregate's arrival rate
exceeds the limit (the RED-style behaviour of the pushback paper), so flows
inside the aggregate share the limited rate roughly proportionally instead of
the fastest flow capturing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.nodes import BorderRouter
from repro.sim.process import PeriodicProcess
from repro.sim.randomness import SeededRandom, stable_seed


@dataclass
class PushbackRequest:
    """A hop-by-hop request to rate-limit an aggregate."""

    aggregate: FlowLabel
    limit_bps: float
    depth: int = 1
    origin: str = ""


@dataclass
class AggregateLimiter:
    """Per-aggregate rate limiter installed on one router.

    The limiter estimates the aggregate's arrival rate over short windows and
    drops each arriving packet with probability ``1 - limit/arrival_rate``,
    which shares the limited rate proportionally among the flows inside the
    aggregate (pushback's RED-style preferential dropping).
    """

    aggregate: FlowLabel
    limit_bps: float
    installed_at: float
    depth: int
    window: float = 0.25
    packets_dropped: int = 0
    packets_passed: int = 0
    _window_start: float = 0.0
    _window_bytes: int = 0
    _estimated_bps: float = 0.0
    #: Fractional-packet carry for train-mode count scaling: the expected
    #: number of survivors is accumulated here so long trains condition to
    #: exactly the mean of the per-packet coin flips, with no RNG at all.
    _train_credit: float = 0.0

    def record_arrival(self, now: float, size: int) -> None:
        """Update the arrival-rate estimate with one packet."""
        if now - self._window_start >= self.window:
            elapsed = max(now - self._window_start, 1e-9)
            self._estimated_bps = (self._window_bytes * 8) / elapsed
            self._window_start = now
            self._window_bytes = 0
        self._window_bytes += size

    @property
    def drop_probability(self) -> float:
        """Probability with which the next packet of the aggregate is dropped."""
        if self._estimated_bps <= self.limit_bps:
            return 0.0
        return 1.0 - (self.limit_bps / self._estimated_bps)

    @property
    def drop_rate(self) -> float:
        """Fraction of the aggregate's offered packets dropped here."""
        total = self.packets_dropped + self.packets_passed
        return self.packets_dropped / total if total else 0.0


class PushbackAgent:
    """Pushback behaviour attached to one border router."""

    def __init__(
        self,
        router: BorderRouter,
        *,
        limit_bps: float = 5e6,
        review_interval: float = 2.0,
        drop_rate_threshold: float = 0.2,
        max_depth: int = 8,
    ) -> None:
        self.router = router
        self.limit_bps = limit_bps
        self.review_interval = review_interval
        self.drop_rate_threshold = drop_rate_threshold
        self.max_depth = max_depth
        self.limiters: Dict[FlowLabel, AggregateLimiter] = {}
        self.requests_sent = 0
        self.requests_received = 0
        self._rng = SeededRandom(stable_seed("pushback", router.name),
                                 name=f"pushback-{router.name}")
        self._reviewer = PeriodicProcess(router.sim, review_interval, self._review,
                                         name=f"pushback-review-{router.name}")
        router.conditioners.append(self._condition)
        self._previous_control_handler = router.control_handler
        router.control_handler = self._handle_control

    # ------------------------------------------------------------------
    # local rate limiting
    # ------------------------------------------------------------------
    def limit_aggregate(self, aggregate: FlowLabel, *, depth: int = 1,
                        limit_bps: Optional[float] = None) -> AggregateLimiter:
        """Start rate-limiting an aggregate on this router."""
        existing = self.limiters.get(aggregate)
        if existing is not None:
            return existing
        limit = limit_bps if limit_bps is not None else self.limit_bps
        now = self.router.sim.now
        limiter = AggregateLimiter(
            aggregate=aggregate,
            limit_bps=limit,
            installed_at=now,
            depth=depth,
            _window_start=now,
        )
        self.limiters[aggregate] = limiter
        if not self._reviewer.running:
            self._reviewer.start()
        return limiter

    def _condition(self, packet: Packet, link: Link, train=None) -> int:
        """How many of the packets pass the first limiter matching them.

        Two algorithms, selected by what arrived.  A lone packet is dropped
        with the limiter's drop probability by a seeded coin flip.  A train
        is rate-conditioned by count scaling: its bytes feed the
        arrival-rate estimator at once, and the pass count is the *expected*
        number of per-packet survivors — ``count * (1 - p)`` with the
        fractional remainder carried between trains in the limiter's
        ``_train_credit`` — so the conditioned rate converges on per-packet
        mode's without any random draws (trains stay deterministic and
        shard-order-independent).
        """
        count = 1 if train is None else train.count
        for limiter in self.limiters.values():
            if limiter.aggregate.matches(packet):
                limiter.record_arrival(self.router.sim.now, count * packet.size)
                p = limiter.drop_probability
                if train is None:
                    passed = 0 if self._rng.chance(p) else 1
                elif p <= 0.0:
                    passed = count
                else:
                    keep = count * (1.0 - p) + limiter._train_credit
                    passed = min(int(keep), count)
                    limiter._train_credit = min(keep - passed, 1.0)
                limiter.packets_dropped += count - passed
                limiter.packets_passed += passed
                return passed
        return count

    def _review(self) -> None:
        """Periodically decide whether to push the problem upstream."""
        for limiter in list(self.limiters.values()):
            if limiter.drop_rate < self.drop_rate_threshold:
                continue
            if limiter.depth >= self.max_depth:
                continue
            self._propagate_upstream(limiter)

    def _propagate_upstream(self, limiter: AggregateLimiter) -> None:
        request = PushbackRequest(
            aggregate=limiter.aggregate,
            limit_bps=self.limit_bps,
            depth=limiter.depth + 1,
            origin=self.router.name,
        )
        for neighbor in self._upstream_neighbors(limiter.aggregate):
            packet = Packet.control(
                src=self.router.address,
                dst=neighbor.address,
                kind=PacketKind.FILTERING_REQUEST,
                payload=request,
                created_at=self.router.sim.now,
            )
            self.router.send(packet)
            self.requests_sent += 1

    def _upstream_neighbors(self, aggregate: FlowLabel) -> List[BorderRouter]:
        """Adjacent border routers the aggregate could be arriving from.

        Pushback asks every upstream neighbour except the one the aggregate
        is forwarded *to* (the victim-facing downstream direction).
        """
        destination = aggregate.dst
        downstream_link = None
        if isinstance(destination, IPAddress):
            downstream_link = self.router.routing.next_link(destination)
        neighbors: List[BorderRouter] = []
        for link in self.router.links:
            if link is downstream_link:
                continue
            other = link.other_end(self.router)
            if isinstance(other, BorderRouter):
                neighbors.append(other)
        return neighbors

    def _handle_control(self, packet: Packet, link: Optional[Link]) -> None:
        payload = packet.payload
        if isinstance(payload, PushbackRequest):
            self.requests_received += 1
            self.limit_aggregate(payload.aggregate, depth=payload.depth,
                                 limit_bps=payload.limit_bps)
            return
        if self._previous_control_handler is not None:
            self._previous_control_handler(packet, link)


@dataclass
class PushbackDeployment:
    """Every pushback agent in a scenario."""

    agents: Dict[str, PushbackAgent] = field(default_factory=dict)

    def agent(self, name: str) -> PushbackAgent:
        """The agent on the named router (KeyError when absent)."""
        return self.agents[name]

    def start_at(self, router_name: str, aggregate: FlowLabel,
                 *, limit_bps: Optional[float] = None) -> AggregateLimiter:
        """Kick off pushback at the congested router (usually the victim's gateway)."""
        return self.agents[router_name].limit_aggregate(aggregate, limit_bps=limit_bps)

    # ------------------------------------------------------------------
    # comparison metrics (experiment E9)
    # ------------------------------------------------------------------
    @property
    def routers_involved(self) -> int:
        """How many routers ended up rate-limiting something."""
        return sum(1 for agent in self.agents.values() if agent.limiters)

    @property
    def total_limiters(self) -> int:
        """Total aggregate limiters installed across the deployment."""
        return sum(len(agent.limiters) for agent in self.agents.values())

    @property
    def total_requests(self) -> int:
        """Total pushback requests exchanged."""
        return sum(agent.requests_sent for agent in self.agents.values())


def deploy_pushback(routers, *, limit_bps: float = 5e6,
                    review_interval: float = 2.0,
                    drop_rate_threshold: float = 0.2) -> PushbackDeployment:
    """Attach a :class:`PushbackAgent` to every border router given."""
    deployment = PushbackDeployment()
    for router in routers:
        if isinstance(router, BorderRouter):
            deployment.agents[router.name] = PushbackAgent(
                router, limit_bps=limit_bps, review_interval=review_interval,
                drop_rate_threshold=drop_rate_threshold,
            )
    return deployment
