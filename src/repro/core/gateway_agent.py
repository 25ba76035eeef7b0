"""AITF behaviour of a border router (gateway).

A gateway plays per-request roles, decided by the request's type field and
the attack path geometry (Section II-C):

**Victim's gateway** — the AITF node closest to the victim.  On a valid
request it installs a *temporary* wire-speed filter for Ttmp seconds, logs
the request in its DRAM shadow cache for T seconds, and propagates the
request to the attacker's gateway.  If the undesired flow is still arriving
when the temporary filter expires, or reappears later while the shadow entry
is alive (an "on-off" attack), the gateway escalates: it re-protects the
victim and sends the request one AITF hop further up its own side of the
path, which designates the next-closest border router to the attacker as the
new attacker's gateway (Section II-D).  When the next hop up the path is
already the non-cooperating attacker-side gateway, the endgame is
disconnection.

**Attacker's gateway** — the AITF node closest to the attacker (for round k,
the k-th closest).  It first verifies the request with the 3-way handshake
(Section II-E: a query carrying the flow label and a fresh nonce to the
victim, which only nodes on the path can see; it filters only when the reply
echoes both), then installs a filter for the full T seconds, propagates the
request to the attacker, and disconnects the attacker if the flow keeps
arriving past a grace period.  In escalated rounds the attacker is a border
router, which stops the flow with a filter of its own.

A request at round k simply designates different nodes for each role, so
every gateway runs the same code regardless of where it sits on the path:
one transition table.  A request's state in one role is one
:class:`RequestState` value; every input (a request in each role, a reply, a
notice, each deadline's expiry, a shadow hit) goes to
:meth:`GatewayAgent._step`, which looks ``(role, input)`` up in
``_TRANSITIONS``.  The handler reads the state, acts and leaves the next
state in the value.  Deadlines are timers outside it, one per (deadline,
request), whose expiry is one more input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.contracts.contract import ContractBook
from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.core.messages import (
    AITFAgent,
    DisconnectNotice,
    FilteringRequest,
    RequestRole,
    VerificationQuery,
    VerificationReply,
)
from repro.net.address import IPAddress, Prefix
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.filter_table import FilterEntry
from repro.router.nodes import BorderRouter
from repro.router.shadow_cache import ShadowCache
from repro.sim.process import Timer
from repro.sim.randomness import SeededRandom, stable_seed

VICTIM_GATEWAY = RequestRole.TO_VICTIM_GATEWAY
ATTACKER_GATEWAY = RequestRole.TO_ATTACKER_GATEWAY
ATTACKER = RequestRole.TO_ATTACKER


class Input(enum.Enum):
    """What steps a request's state: a message, a deadline or a shadow hit."""

    REQUEST = "request"
    REPLY = "reply"
    NOTICE = "notice"
    COOPERATION_CHECK = "cooperation_check"  # the temporary filter ran out
    GRACE_OVER = "grace_over"  # the attacker's grace period ran out
    HANDSHAKE_TIMEOUT = "handshake_timeout"
    SHADOW_HIT = "shadow_hit"


class Phase(enum.Enum):
    """Where a request stands in its role."""

    #: Victim's gateway: protecting the victim, watching for the flow.
    WATCHING = "watching"
    #: Victim's gateway: out of rounds; only a repeated request acts.
    GAVE_UP = "gave_up"
    #: Attacker's gateway: no verification has succeeded yet.
    VERIFYING = "verifying"
    #: Attacker's gateway: verified, filtering for T.
    FILTERING = "filtering"
    #: Attacker's gateway: the attacker was disconnected.
    DISCONNECTED = "disconnected"


@dataclass
class RequestState:
    """One request's protocol state at one gateway, in one role.

    A plain value: no timer, callback or agent, so it can be copied and
    compared.  ``request`` is the request that opened the record (the
    attacker's gateway adopts the one it first verifies).
    """

    request: FilteringRequest
    phase: Phase
    #: Victim's gateway: the border routers on the path, attacker's first,
    #: and the escalation round whose attacker's gateway it asked.
    attack_path: Tuple[str, ...] = ()
    current_round: int = 0
    #: The temporary filter (victim's gateway) or the T filter (attacker's).
    filter_entry: Optional[FilterEntry] = None
    #: The round whose request this gateway's own outbound contract refused
    #: (``_send_request`` returned False): it never left, so no attacker's
    #: gateway can have reneged on it.  Cleared once a request leaves.
    refused_round: Optional[int] = None
    last_escalation_at: Optional[float] = None
    escalations: int = 0
    #: Attacker's gateway: the request under verification and the nonce its
    #: query carried (both None when no verification is pending).
    verifying: Optional[FilteringRequest] = None
    nonce: Optional[int] = None
    #: Attacker's gateway: who was told to stop the flow.
    attacker: str = ""


class GatewayAgent(AITFAgent):
    """The AITF protocol engine attached to one :class:`repro.router.BorderRouter`."""

    def __init__(
        self,
        router: BorderRouter,
        config: AITFConfig,
        event_log: ProtocolEventLog,
        directory: NodeDirectory,
        *,
        rng: Optional[SeededRandom] = None,
        cooperative: bool = True,
        disconnection_enabled: bool = True,
    ) -> None:
        # A non-cooperative gateway ignores requests that designate it as
        # the attacker's gateway (the paper's escalation trigger).
        super().__init__(router, config, event_log, directory,
                         router.filter_table, cooperative=cooperative)
        self.rng = rng or SeededRandom(stable_seed("gateway", router.name),
                                       name=router.name)
        #: Whether this gateway exercises its right to disconnect
        #: non-cooperating counterparties.
        self.disconnection_enabled = disconnection_enabled
        # Behind the two properties below.
        self._contracts: Optional[ContractBook] = None
        self._shadow: Optional[ShadowCache] = None
        # Forked here, not on first use: SeededRandom.fork seeds by fork order.
        self._handshake_rng = self.rng.fork("handshake")
        #: Every request's state, by (role, request id), in creation order.
        self._records: Dict[Tuple[RequestRole, int], RequestState] = {}
        #: The deadlines, by (input their expiry raises, request id).
        self._timers: Dict[Tuple[Input, int], Timer] = {}
        router.add_forward_observer(self._observe_forwarded)

    # ------------------------------------------------------------------
    # per-gateway books, built by the first request that reaches this
    # gateway: on a 5,000-AS hierarchy a few dozen agents ever see one.
    # Plain properties over attributes set in __init__, not
    # cached_property: that one writes through the instance __dict__, after
    # which CPython 3.11 reads every attribute of the agent the slow way
    # (+15 ns a read), the per-packet forward hook's included.
    # ------------------------------------------------------------------
    @property
    def contracts(self) -> ContractBook:
        """Filtering contracts with this gateway's counterparties."""
        book = self._contracts
        if book is None:
            book = self._contracts = ContractBook(
                clock=self.node.sim.clock,
                default_accept_rate=self.config.default_accept_rate,
                default_send_rate=self.config.default_send_rate,
            )
        return book

    @property
    def shadow_cache(self) -> ShadowCache:
        """The DRAM log of requests this gateway is still watching for."""
        cache = self._shadow
        if cache is None:
            router = self.node
            cache = self._shadow = ShadowCache(
                capacity=self.config.shadow_cache_capacity,
                clock=router.sim.clock,
                name=f"{router.name}-shadow",
            )
        return cache

    # ------------------------------------------------------------------
    # inputs: each one is one step
    # ------------------------------------------------------------------
    def _step(self, role: Optional[RequestRole], event: Input,
              request_id: Optional[int], *args) -> None:
        """Step the state of request ``request_id`` in ``role`` on one
        input: the only way protocol state changes."""
        _TRANSITIONS[role, event](self, self._records.get((role, request_id)),
                                  *args)

    def _on_request(self, request: FilteringRequest, packet: Packet,
                    link: Optional[Link]) -> None:
        now = self.sim.now
        self.log.record(now, EventType.REQUEST_RECEIVED, self.name,
                        request.request_id, role=request.role.value,
                        round=request.round_number, requestor=request.requestor)
        counterparty = self._counterparty_for(link)
        if counterparty is not None and not self.contracts.police_inbound(counterparty):
            self.log.record(now, EventType.REQUEST_POLICED, self.name,
                            request.request_id, counterparty=counterparty)
            return
        self._step(request.role, Input.REQUEST, request.request_id,
                   request, packet, link)

    def _on_reply(self, reply: VerificationReply) -> None:
        self._step(ATTACKER_GATEWAY, Input.REPLY, reply.request_id, reply)

    def _on_notice(self, notice: DisconnectNotice, packet: Packet) -> None:
        self._step(None, Input.NOTICE, notice.request_id, notice, packet)

    def _observe_forwarded(self, packet: Packet, link: Link, train=None) -> None:
        """Forward-path hook: catch on-off flows against the shadow cache.

        A train is homogeneous, so one lookup advances the reappearance
        counter by its full packet count and the reaction (re-protect +
        escalate, both grace-throttled) fires once per train, exactly as it
        effectively does once per packet burst in per-packet mode.
        """
        cache = self._shadow
        if cache is None:
            return
        entry = cache.match_packet(packet, 1 if train is None else train.count)
        if entry is None:
            return
        # The entry is the label's latest victim's-gateway state's.
        for (role, request_id), state in reversed(self._records.items()):
            if role is VICTIM_GATEWAY and state.request.label == entry.label:
                return self._step(role, Input.SHADOW_HIT, request_id, packet)

    def _arm(self, role: RequestRole, event: Input, request_id: int,
             delay: float) -> None:
        """(Re)start the deadline whose expiry raises ``event``."""
        timer = self._timers.get((event, request_id))
        if timer is None:
            timer = self._timers[event, request_id] = Timer(
                self.sim, self._step, role, event, request_id)
        timer.restart(delay)

    # ==================================================================
    # Victim's-gateway role
    # ==================================================================
    def _protect_victim(self, state: Optional[RequestState],
                        request: FilteringRequest, packet: Packet,
                        link: Optional[Link]) -> None:
        if not self._verify_victim_side(request, link, packet):
            self._reject(request, "victim-side verification failed")
            return
        attack_path = tuple(request.attack_path)
        if state is None:
            state = self._records[VICTIM_GATEWAY, request.request_id] = \
                RequestState(request, Phase.WATCHING, attack_path=attack_path,
                             current_round=request.round_number)
        else:
            state.attack_path = attack_path or state.attack_path
            state.current_round = max(state.current_round, request.round_number)

        self._install_temporary_filter(state)
        self._log_shadow(state)
        self._propagate_to_attacker_gateway(state)

    def _verify_victim_side(self, request: FilteringRequest, link: Optional[Link],
                            packet: Optional[Packet] = None) -> bool:
        """Ingress-style verification of a request from the victim's side.

        The victim's gateway can check a request without a handshake because
        it knows who its clients are (Section II-E: "trivial with appropriate
        ingress filtering").  Two legitimate cases exist:

        * the requestor is one of this gateway's own clients, reached over
          its access link, asking for protection of an address this gateway
          serves (the normal first-round request), or
        * the requestor is the adjacent downstream border router on the
          recorded attack path (an escalated request, Section II-D), and the
          victim really is routed out of the link the request arrived on.

        Anything else — notably a request arriving from the *attacker's* side
        of the network, or one whose claimed source fails ingress validation
        — is a forgery and is refused before any filter is touched.
        """
        victim_address = self._victim_address(request)
        if victim_address is None:
            return False
        if link is None:
            # Locally injected request (e.g. the gateway protecting itself).
            return True
        neighbor = link.other_end(self.node)
        claimed_source = packet.src if packet is not None else None

        # Case 1: a request from one of our own clients, for our own network.
        if not isinstance(neighbor, BorderRouter):
            source_is_ours = (
                claimed_source is not None
                and (neighbor.owns_address(claimed_source)
                     or self.node.ingress.validates_source(claimed_source, link))
            )
            victim_is_ours = (
                self.node.serves_address(victim_address)
                or neighbor.owns_address(victim_address)
                or self.node.routing.next_link(victim_address) is link
            )
            return source_is_ours and victim_is_ours

        # Case 2: an escalated request from the downstream gateway on the path.
        if neighbor.name != request.requestor:
            return False
        if request.attack_path:
            try:
                neighbor_index = request.attack_path.index(neighbor.name)
            except ValueError:
                return False
            if self.name in request.attack_path:
                if neighbor_index <= request.attack_path.index(self.name):
                    return False
        return self.node.routing.next_link(victim_address) is link

    def _install_temporary_filter(self, state: RequestState) -> None:
        ttmp = self.config.temporary_filter_timeout
        request_id = state.request.request_id
        entry = self._install_filter(state.request, ttmp, "temporary")
        if entry is None:
            return
        state.filter_entry = entry
        self.log.record(self.sim.now, EventType.TEMP_FILTER_INSTALLED, self.name,
                        request_id, duration=ttmp, round=state.current_round)
        self._arm(VICTIM_GATEWAY, Input.COOPERATION_CHECK, request_id,
                  self.config.effective_escalation_grace)

    def _log_shadow(self, state: RequestState) -> None:
        now = self.sim.now
        entry = self.shadow_cache.log(
            state.request.label,
            self.config.effective_shadow_timeout,
            requestor=state.request.requestor,
        )
        if entry is None:
            self.log.record(now, EventType.FILTER_INSTALL_FAILED, self.name,
                            state.request.request_id, table="shadow")
            return
        self.log.record(now, EventType.SHADOW_LOGGED, self.name,
                        state.request.request_id,
                        duration=self.config.effective_shadow_timeout)

    def _propagate_to_attacker_gateway(self, state: RequestState) -> None:
        request = state.request
        outbound = request.propagate(
            role=ATTACKER_GATEWAY, requestor=self.name,
            attack_path=state.attack_path, round_number=state.current_round)
        designated = outbound.designated_attacker_gateway
        if designated is None:
            self._reject(request, "no attack path available")
            return
        if designated == self.name:
            # This gateway is both the victim's and the attacker's gateway
            # (attacker and victim share a provider): skip the network hop.
            self._step(ATTACKER_GATEWAY, Input.REQUEST, request.request_id,
                       outbound, None, None)
            return
        target_address = self.directory.address_of(designated)
        if target_address is None:
            self._reject(request, f"unknown attacker gateway {designated}")
            return
        if not self._send_request(outbound, designated, target_address):
            state.refused_round = state.current_round
            return
        state.refused_round = None
        self.log.record(self.sim.now, EventType.REQUEST_SENT, self.name,
                        request.request_id, role=outbound.role.value,
                        target=designated, round=state.current_round)

    def _check_cooperation(self, state: RequestState) -> None:
        """At temporary-filter expiry: did the attacker's gateway take over?"""
        if state.phase is Phase.GAVE_UP:
            return
        entry = state.filter_entry
        self.log.record(self.sim.now, EventType.TEMP_FILTER_EXPIRED, self.name,
                        state.request.request_id, round=state.current_round,
                        packets_blocked=entry.packets_blocked if entry else 0)
        if state.refused_round == state.current_round:
            # This round's request never left: re-protect the victim and
            # send it again (paced by the same contract) instead of blaming
            # a gateway that was never asked.
            self._install_temporary_filter(state)
            self._propagate_to_attacker_gateway(state)
        elif self._blocked_recently(entry):
            # The flow never stopped: the attacker's gateway is not cooperating.
            self._escalate(state)
        # Otherwise the temporary filter is allowed to lapse; the shadow
        # entry keeps watching for the flow to reappear.

    def _shadow_hit(self, state: RequestState, packet: Packet) -> None:
        if state.phase is Phase.GAVE_UP:
            return
        self.log.record(self.sim.now, EventType.SHADOW_HIT, self.name,
                        state.request.request_id, round=state.current_round)
        # Re-protect the victim immediately — detection of a reappearing flow
        # is just a DRAM lookup (Section IV-A.1, footnote 8).
        if self._refresh_attack_path(state, packet):
            # The flow reappeared over a *different* border-router path —
            # route churn moved it, not an on-off attacker.  The recorded
            # path names a gateway that never saw a filtering request, so
            # re-propagate to the new attacker's gateway instead of
            # escalating along the stale path.
            self._install_temporary_filter(state)
            self._propagate_to_attacker_gateway(state)
            return
        # The flow coming back proves the attacker-side gateway of the
        # current round reneged: escalate.
        self._install_temporary_filter(state)
        self._escalate(state)

    def _refresh_attack_path(self, state: RequestState,
                             packet: Packet) -> bool:
        """Reconcile the stored attack path with the packet's route record.

        Returns True (and rewrites ``state.attack_path``) only when the
        shim carried by the reappearing flow genuinely disagrees with the
        stored path.  A route record that is a *prefix* of the stored path
        is consistent, not a change: an escalated mid-path gateway always
        sees a truncated record (the path beyond itself was recorded by
        the original victim's gateway, not by the packet in hand).
        """
        recorded = tuple(packet.route_record)
        if not recorded or not state.attack_path:
            return False
        if recorded[-1] != self.name:
            # Partial stamping (partial deployment) — nothing to compare.
            return False
        if recorded == state.attack_path[:len(recorded)]:
            return False
        # Splice: the record replaces the attacker-side portion of the path
        # up to this gateway; anything beyond us (recorded earlier, closer
        # to the victim) is untouched by the reroute we just witnessed.
        try:
            index = state.attack_path.index(self.name)
        except ValueError:
            index = len(state.attack_path) - 1
        new_path = recorded + state.attack_path[index + 1:]
        old_path = state.attack_path
        state.attack_path = new_path
        state.current_round = min(state.current_round, len(new_path))
        # The new path's gateways never reneged on anything: clear the
        # give-up/escalation history so the protocol restarts cleanly
        # against the gateways that now actually carry the flow.
        state.phase = Phase.WATCHING
        state.escalations = 0
        state.last_escalation_at = self.sim.now
        self.log.record(self.sim.now, EventType.PATH_CHANGED, self.name,
                        state.request.request_id,
                        old_path=old_path, new_path=new_path,
                        round=state.current_round)
        return True

    def _escalate(self, state: RequestState) -> None:
        if not self.config.escalation_enabled:
            return
        now = self.sim.now
        if (state.last_escalation_at is not None
                and now - state.last_escalation_at < self.config.effective_escalation_grace):
            # Already tried very recently; give the current round a chance.
            return
        if state.escalations >= self.config.max_escalation_rounds:
            state.phase = Phase.GAVE_UP
            return
        path = state.attack_path
        upstream = self._upstream_on_path(path)
        if upstream is None:
            state.phase = Phase.GAVE_UP
            return
        new_round = state.current_round + 1
        escalated = state.request.propagate(
            role=VICTIM_GATEWAY, requestor=self.name, attack_path=path,
            round_number=new_round)
        # Round k+1's designated attacker is round k's attacker's gateway.
        if upstream == escalated.designated_attacker:
            # The next AITF node up the path is the non-cooperating gateway
            # itself: when it is a direct neighbor the endgame is
            # disconnection (Section II-D, "G_gw3 disconnects from B_gw3").
            # Under partial deployment the next AITF gateway may sit several
            # non-deployed hops away — there is no shared link to sever, and
            # cutting our own upstream toward it would disconnect *us*, so
            # we keep filtering locally instead.
            offender_node = self.directory.get(upstream)
            if (offender_node is not None
                    and self.node.link_to(offender_node) is not None):
                self._disconnect_from(upstream, state.request,
                                      reason="non-cooperating peer gateway")
            state.phase = Phase.GAVE_UP
            return
        target_address = self.directory.address_of(upstream)
        if target_address is None:
            state.phase = Phase.GAVE_UP
            return
        # Stamped even when pacing refuses the request, so retries stay
        # throttled; the round advances only once the request is sent.
        state.last_escalation_at = now
        if not self._send_request(escalated, upstream, target_address):
            return
        state.current_round = new_round
        state.escalations += 1
        # Remember that we want this label blocked so we can answer the
        # handshake query the new attacker's gateway may send us.
        self.wanted_blocks[state.request.label] = now + state.request.timeout
        self.log.record(now, EventType.ESCALATION, self.name,
                        state.request.request_id, round=new_round, target=upstream)

    # ==================================================================
    # Attacker's-gateway role
    # ==================================================================
    def _verify_request(self, state: Optional[RequestState],
                        request: FilteringRequest, packet: Optional[Packet],
                        link: Optional[Link]) -> None:
        if not self.cooperative:
            self._reject(request, "non-cooperative gateway")
            return
        if state is None:
            state = self._records[ATTACKER_GATEWAY, request.request_id] = \
                RequestState(request, Phase.VERIFYING)
        if not self.config.verification_enabled:
            self._commit(state, request)
            return
        victim_address = self._victim_address(request)
        if victim_address is None:
            self._reject(request, "no victim address to verify against")
            return
        if state.nonce is None:
            # A repeated request re-sends the pending query: a new nonce
            # would let a late reply to the old one be misread.
            state.verifying, state.nonce = request, self._handshake_rng.nonce()
            self._arm(ATTACKER_GATEWAY, Input.HANDSHAKE_TIMEOUT,
                      request.request_id, self.config.handshake_timeout)
        query = VerificationQuery(label=request.label, nonce=state.nonce,
                                  querier=self.node.address,
                                  request_id=request.request_id)
        self._send_control(victim_address, PacketKind.VERIFICATION_QUERY, query)
        self.log.record(self.sim.now, EventType.HANDSHAKE_STARTED, self.name,
                        request.request_id, victim=str(victim_address))

    def _settle(self, state: Optional[RequestState],
                reply: VerificationReply) -> None:
        """Match a verification reply against the pending query."""
        if (state is None or state.nonce is None or reply.nonce != state.nonce
                or reply.label != state.verifying.label):
            # Stray, stale, forged or corrupted: a pending verification
            # stays pending until its real reply or its timeout.
            return
        request = state.verifying
        self._timers[Input.HANDSHAKE_TIMEOUT, reply.request_id].cancel()
        state.verifying = state.nonce = None
        if reply.confirmed:
            self._commit(state, request)
        else:
            self._handshake_failed(request, "victim denied the request")

    def _handshake_timed_out(self, state: RequestState) -> None:
        request = state.verifying
        state.verifying = state.nonce = None
        self._handshake_failed(request, "verification timed out")

    def _handshake_failed(self, request: FilteringRequest, reason: str) -> None:
        self.log.record(self.sim.now, EventType.HANDSHAKE_FAILED, self.name,
                        request.request_id, reason=reason)

    def _commit(self, state: RequestState, request: FilteringRequest) -> None:
        """Verification succeeded (or was disabled): block the flow for T."""
        now = self.sim.now
        self.log.record(now, EventType.HANDSHAKE_CONFIRMED, self.name,
                        request.request_id)
        if state.phase is Phase.VERIFYING:
            state.request, state.phase = request, Phase.FILTERING
        entry = self._install_filter(request, request.timeout, "attacker-gateway")
        if entry is None:
            return
        state.filter_entry = entry
        self.log.record(now, EventType.FILTER_INSTALLED, self.name,
                        request.request_id, duration=request.timeout,
                        round=request.round_number)
        self._propagate_to_attacker(state)
        self._arm(ATTACKER_GATEWAY, Input.GRACE_OVER, request.request_id,
                  self.config.attacker_grace_period)

    def _propagate_to_attacker(self, state: RequestState) -> None:
        request = state.request
        attacker_name, attacker_address = self._resolve_attacker(request)
        if attacker_address is None:
            self._reject(request, "cannot resolve attacker")
            return
        state.attacker = attacker_name
        outbound = request.propagate(role=ATTACKER, requestor=self.name)
        if not self._send_request(outbound, attacker_name, attacker_address):
            return
        self.log.record(self.sim.now, EventType.REQUEST_SENT, self.name,
                        request.request_id, role=outbound.role.value,
                        target=attacker_name, round=request.round_number)

    def _check_attacker_compliance(self, state: RequestState) -> None:
        """Grace period over: is the attacker still trying to send the flow?"""
        if (state.phase is Phase.DISCONNECTED
                or not self._blocked_recently(state.filter_entry)):
            return
        if not self.disconnection_enabled:
            # Keep filtering for the rest of T; re-check at the next grace period
            # so a later stop is still noticed.
            self._arm(ATTACKER_GATEWAY, Input.GRACE_OVER,
                      state.request.request_id, self.config.attacker_grace_period)
            return
        self._disconnect_from(state.attacker or str(state.request.label.src),
                              state.request, reason="attacker ignored filtering request")
        state.phase = Phase.DISCONNECTED

    # ==================================================================
    # Attacker role (escalated rounds designate border routers as attackers)
    # ==================================================================
    def _stop_own_flow(self, state: Optional[RequestState], request: FilteringRequest,
                       packet: Packet, link: Optional[Link]) -> None:
        if not self.cooperative:
            self._reject(request, "non-cooperative gateway")
            return
        if self._install_filter(request, request.timeout, "stop-own-flow") is None:
            return
        self.log.record(self.sim.now, EventType.FLOW_STOPPED, self.name,
                        request.request_id, label=str(request.label))

    # ==================================================================
    # Disconnection
    # ==================================================================
    def _noted_disconnection(self, state: Optional[RequestState], notice: DisconnectNotice,
                             packet: Packet) -> None:
        self.log.record(self.sim.now, EventType.DISCONNECTION, self.name,
                        notice.request_id, offender=notice.offender,
                        notified_by=self.directory.name_of(packet.src),
                        reason=notice.reason, notice=True)

    def _disconnect_from(self, offender: str, request: FilteringRequest,
                         reason: str) -> None:
        now = self.sim.now
        link = self._link_toward_name(offender)
        if link is None:
            self.log.record(now, EventType.DISCONNECTION, self.name,
                            request.request_id, offender=offender,
                            reason=reason, link_found=False)
            return
        self.node.disconnect_link(link)
        self.log.record(now, EventType.DISCONNECTION, self.name,
                        request.request_id, offender=offender, reason=reason,
                        link_found=True)
        notice = DisconnectNotice(offender=offender, reason=reason,
                                  request_id=request.request_id)
        offender_address = self.directory.address_of(offender)
        if offender_address is not None:
            # Deliver the notice before the link goes dark is not possible in
            # a real network either; we simply record it for the offender's
            # operators (the directory lookup models the out-of-band channel).
            offender_node = self.directory.get(offender)
            if offender_node is not None and offender_node.control_handler is not None:
                offender_node.control_handler(
                    self._control_packet(offender_address,
                                         PacketKind.DISCONNECT_NOTICE, notice),
                    None,
                )

    # ==================================================================
    # shared internals
    # ==================================================================
    def _reject(self, request: FilteringRequest, reason: str) -> None:
        self.log.record(self.sim.now, EventType.REQUEST_REJECTED, self.name,
                        request.request_id, reason=reason)

    def _counterparty_for(self, link: Optional[Link]) -> Optional[str]:
        """The end-host or peer network a request arrived from/through."""
        if link is None:
            return None
        neighbor = link.other_end(self.node)
        if isinstance(neighbor, BorderRouter):
            return neighbor.network
        return neighbor.name

    def _victim_address(self, request: FilteringRequest) -> Optional[IPAddress]:
        if request.victim is not None:
            return request.victim
        dst = request.label.dst
        if isinstance(dst, IPAddress):
            return dst
        if isinstance(dst, Prefix) and dst.length == 32:
            return dst.network
        return None

    def _upstream_on_path(self, path: Tuple[str, ...]) -> Optional[str]:
        """The next border router on the path, one step closer to the attacker."""
        index = path.index(self.name) if self.name in path else 0
        return path[index - 1] if index > 0 else None

    def _resolve_attacker(self, request: FilteringRequest) -> Tuple[str, Optional[IPAddress]]:
        """Who should be told to stop the flow in this round, and at what address."""
        designated = request.designated_attacker
        if designated:
            return designated, self.directory.address_of(designated)
        src = request.label.src
        if isinstance(src, IPAddress):
            name = self.directory.name_of(src) or str(src)
            return name, src
        if isinstance(src, Prefix) and src.length == 32:
            address = src.network
            name = self.directory.name_of(address) or str(address)
            return name, address
        return "", None

    def _blocked_recently(self, entry: Optional[FilterEntry]) -> bool:
        """True when ``entry`` blocked a packet within the cooperation-check
        window: the flow it filters is still arriving."""
        return (entry is not None
                and entry.last_blocked_at is not None
                and (self.sim.now - entry.last_blocked_at)
                <= self.config.cooperation_check_window)

    def _send_request(self, request: FilteringRequest, target: str,
                      address: IPAddress) -> bool:
        """Send a filtering request to ``target`` if the outbound contract
        with the peer the route points at allows it.

        A refusal is logged and returns False; a caller advances its round
        or logs the request as sent only on True.
        """
        link = self.node.routing.next_link(address)
        if (link is not None
                and not self.contracts.pace_outbound(self._counterparty_for(link))):
            self.log.record(self.sim.now, EventType.REQUEST_POLICED, self.name,
                            request.request_id, direction="outbound",
                            target=target)
            return False
        self._send_control(address, PacketKind.FILTERING_REQUEST, request)
        return True

    def _link_toward_name(self, name: str) -> Optional[Link]:
        node = self.directory.get(name)
        if node is not None:
            direct = self.node.link_to(node)
            if direct is not None:
                return direct
            if node.addresses:
                return self.node.routing.next_link(node.address)
        # Fall back to parsing the name as an address.
        try:
            return self.node.routing.next_link(IPAddress.parse(name))
        except (ValueError, AttributeError):
            return None


#: The transition table: the handler of each input in each role.  A handler
#: takes the request's state (None before the first request in the role
#: opens it) and the input's own arguments.
_TRANSITIONS = {
    (VICTIM_GATEWAY, Input.REQUEST): GatewayAgent._protect_victim,
    (VICTIM_GATEWAY, Input.COOPERATION_CHECK): GatewayAgent._check_cooperation,
    (VICTIM_GATEWAY, Input.SHADOW_HIT): GatewayAgent._shadow_hit,
    (ATTACKER_GATEWAY, Input.REQUEST): GatewayAgent._verify_request,
    (ATTACKER_GATEWAY, Input.REPLY): GatewayAgent._settle,
    (ATTACKER_GATEWAY, Input.HANDSHAKE_TIMEOUT): GatewayAgent._handshake_timed_out,
    (ATTACKER_GATEWAY, Input.GRACE_OVER): GatewayAgent._check_attacker_compliance,
    (ATTACKER, Input.REQUEST): GatewayAgent._stop_own_flow,
    (None, Input.NOTICE): GatewayAgent._noted_disconnection,
}
