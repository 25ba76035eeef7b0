"""AITF behaviour of a border router (gateway).

A gateway plays two protocol roles, decided per filtering request by the
request's type field and the attack path geometry (Section II-C):

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
to the victim (Section II-E), then installs a filter for the full T seconds,
propagates the request to the attacker, and disconnects the attacker if the
flow keeps arriving past a grace period.

Escalated rounds reuse the same machinery: a request at round k simply
designates different nodes for each role, so every gateway runs the same
code regardless of where it sits on the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.contracts.contract import ContractBook
from repro.core.config import AITFConfig
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEventLog
from repro.core.handshake import HandshakeManager
from repro.core.messages import (
    AITFAgent,
    DisconnectNotice,
    FilteringRequest,
    RequestRole,
    VerificationReply,
)
from repro.net.address import IPAddress, Prefix
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.router.filter_table import FilterEntry
from repro.router.nodes import BorderRouter
from repro.router.shadow_cache import ShadowCache, ShadowEntry
from repro.sim.process import Timer
from repro.sim.randomness import SeededRandom, stable_seed


@dataclass
class VictimGatewayState:
    """Per-request state kept while acting as the victim's gateway."""

    request: FilteringRequest
    attack_path: Tuple[str, ...]
    current_round: int
    temp_filter: Optional[FilterEntry] = None
    cooperation_timer: Optional[Timer] = None
    #: The round whose request this gateway's own outbound contract refused
    #: (``_send_request`` returned False): it never left, so no attacker's
    #: gateway can have reneged on it.  Cleared once a request leaves.
    refused_round: Optional[int] = None
    last_escalation_at: Optional[float] = None
    escalations: int = 0
    gave_up: bool = False


@dataclass
class AttackerGatewayState:
    """Per-request state kept while acting as the attacker's gateway."""

    request: FilteringRequest
    filter_entry: Optional[FilterEntry] = None
    grace_timer: Optional[Timer] = None
    attacker_name: str = ""
    disconnected: bool = False


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
        # Behind the three properties below.  The rng is drawn here, not
        # with the manager it seeds: SeededRandom.fork seeds by fork order.
        self._contracts: Optional[ContractBook] = None
        self._shadow: Optional[ShadowCache] = None
        self._handshake: Optional[HandshakeManager] = None
        self._handshake_rng = self.rng.fork("handshake")
        self._victim_states: Dict[int, VictimGatewayState] = {}
        self._victim_by_label: Dict[FlowLabel, int] = {}
        self._attacker_states: Dict[int, AttackerGatewayState] = {}
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

    @property
    def handshake(self) -> HandshakeManager:
        """Pending 3-way-handshake verifications."""
        manager = self._handshake
        if manager is None:
            manager = self._handshake = HandshakeManager(
                self.node.sim, self._handshake_rng,
                timeout=self.config.handshake_timeout)
        return manager

    # ------------------------------------------------------------------
    # messages addressed to this gateway
    # ------------------------------------------------------------------
    def _on_reply(self, reply: VerificationReply) -> None:
        self.handshake.handle_reply(reply)

    def _on_notice(self, notice: DisconnectNotice, packet: Packet) -> None:
        self.log.record(self.sim.now, EventType.DISCONNECTION, self.name,
                        notice.request_id, offender=notice.offender,
                        notified_by=self.directory.name_of(packet.src),
                        reason=notice.reason, notice=True)

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
        if request.role is RequestRole.TO_VICTIM_GATEWAY:
            self._act_as_victim_gateway(request, packet, link)
        elif request.role is RequestRole.TO_ATTACKER_GATEWAY:
            self._act_as_attacker_gateway(request)
        elif request.role is RequestRole.TO_ATTACKER:
            self._act_as_attacker(request)

    # ==================================================================
    # Victim's-gateway role
    # ==================================================================
    def _act_as_victim_gateway(self, request: FilteringRequest,
                               packet: Packet, link: Optional[Link]) -> None:
        now = self.sim.now
        if not self._verify_victim_side(request, link, packet):
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="victim-side verification failed")
            return
        attack_path = tuple(request.attack_path)
        state = self._victim_states.get(request.request_id)
        if state is None:
            state = VictimGatewayState(
                request=request,
                attack_path=attack_path,
                current_round=request.round_number,
            )
            self._victim_states[request.request_id] = state
            self._victim_by_label[request.label] = request.request_id
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

    def _install_temporary_filter(self, state: VictimGatewayState) -> None:
        ttmp = self.config.temporary_filter_timeout
        entry = self._install_filter(state.request, ttmp, "temporary")
        if entry is None:
            return
        state.temp_filter = entry
        self.log.record(self.sim.now, EventType.TEMP_FILTER_INSTALLED, self.name,
                        state.request.request_id, duration=ttmp,
                        round=state.current_round)
        if state.cooperation_timer is None:
            state.cooperation_timer = Timer(
                self.sim, self._check_cooperation, state.request.request_id)
        state.cooperation_timer.restart(self.config.effective_escalation_grace)

    def _log_shadow(self, state: VictimGatewayState) -> None:
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

    def _propagate_to_attacker_gateway(self, state: VictimGatewayState) -> None:
        now = self.sim.now
        request = state.request
        designated = self._designated_attacker_gateway(state)
        if designated is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="no attack path available")
            return
        outbound = request.propagate(
            role=RequestRole.TO_ATTACKER_GATEWAY,
            requestor=self.name,
            attack_path=state.attack_path,
            round_number=state.current_round,
        )
        if designated == self.name:
            # This gateway is both the victim's and the attacker's gateway
            # (attacker and victim share a provider): skip the network hop.
            self._act_as_attacker_gateway(outbound)
            return
        target_address = self.directory.address_of(designated)
        if target_address is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id,
                            reason=f"unknown attacker gateway {designated}")
            return
        if not self._send_request(outbound, designated, target_address):
            state.refused_round = state.current_round
            return
        state.refused_round = None
        self.log.record(now, EventType.REQUEST_SENT, self.name, request.request_id,
                        role=outbound.role.value, target=designated,
                        round=state.current_round)

    def _check_cooperation(self, request_id: int) -> None:
        """At temporary-filter expiry: did the attacker's gateway take over?"""
        state = self._victim_states.get(request_id)
        if state is None or state.gave_up:
            return
        now = self.sim.now
        entry = state.temp_filter
        self.log.record(now, EventType.TEMP_FILTER_EXPIRED, self.name, request_id,
                        round=state.current_round,
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
        if entry is not None:
            self._on_shadow_hit(entry, packet)

    def _on_shadow_hit(self, entry: ShadowEntry,
                       packet: Optional[Packet] = None) -> None:
        request_id = self._victim_by_label.get(entry.label)
        if request_id is None:
            return
        state = self._victim_states.get(request_id)
        if state is None or state.gave_up:
            return
        now = self.sim.now
        self.log.record(now, EventType.SHADOW_HIT, self.name, request_id,
                        round=state.current_round)
        if packet is not None and self._refresh_attack_path(state, packet):
            # The flow reappeared over a *different* border-router path —
            # route churn moved it, not an on-off attacker.  The recorded
            # path names a gateway that never saw a filtering request, so
            # re-protect the victim and re-propagate to the new attacker's
            # gateway instead of escalating along the stale path.
            self._install_temporary_filter(state)
            self._propagate_to_attacker_gateway(state)
            return
        # Re-protect the victim immediately — detection of a reappearing flow
        # is just a DRAM lookup (Section IV-A.1, footnote 8) — and escalate,
        # because the flow coming back proves the attacker-side gateway of the
        # current round reneged.
        self._install_temporary_filter(state)
        self._escalate(state)

    def _refresh_attack_path(self, state: VictimGatewayState,
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
        state.gave_up = False
        state.escalations = 0
        state.last_escalation_at = self.sim.now
        self.log.record(self.sim.now, EventType.PATH_CHANGED, self.name,
                        state.request.request_id,
                        old_path=old_path, new_path=new_path,
                        round=state.current_round)
        return True

    def _escalate(self, state: VictimGatewayState) -> None:
        if not self.config.escalation_enabled or state.gave_up:
            return
        now = self.sim.now
        if (state.last_escalation_at is not None
                and now - state.last_escalation_at < self.config.effective_escalation_grace):
            # Already tried very recently; give the current round a chance.
            return
        if state.escalations >= self.config.max_escalation_rounds:
            state.gave_up = True
            return
        path = state.attack_path
        upstream = self._upstream_on_path(path)
        designated = self._designated_attacker_gateway(state)
        if upstream is None:
            state.gave_up = True
            return
        if upstream == designated:
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
            state.gave_up = True
            return
        target_address = self.directory.address_of(upstream)
        if target_address is None:
            state.gave_up = True
            return
        # Stamped even when pacing refuses the request, so retries stay
        # throttled; the round advances only once the request is sent.
        state.last_escalation_at = now
        new_round = state.current_round + 1
        escalated = state.request.propagate(
            role=RequestRole.TO_VICTIM_GATEWAY,
            requestor=self.name,
            attack_path=path,
            round_number=new_round,
        )
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
    def _act_as_attacker_gateway(self, request: FilteringRequest) -> None:
        now = self.sim.now
        if not self.cooperative:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="non-cooperative gateway")
            return
        if not self.config.verification_enabled:
            self._attacker_gateway_commit(request)
            return
        victim_address = self._victim_address(request)
        if victim_address is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="no victim address to verify against")
            return
        query = self.handshake.begin(
            request,
            self.node.address,
            on_confirmed=self._attacker_gateway_commit,
            on_failed=self._handshake_failed,
        )
        self._send_control(victim_address, PacketKind.VERIFICATION_QUERY, query)
        self.log.record(now, EventType.HANDSHAKE_STARTED, self.name,
                        request.request_id, victim=str(victim_address))

    def _handshake_failed(self, request: FilteringRequest, reason: str) -> None:
        self.log.record(self.sim.now, EventType.HANDSHAKE_FAILED, self.name,
                        request.request_id, reason=reason)

    def _attacker_gateway_commit(self, request: FilteringRequest) -> None:
        """Verification succeeded (or was disabled): block the flow for T."""
        now = self.sim.now
        if self.handshake.is_pending(request.request_id):
            self.handshake.cancel(request.request_id)
        self.log.record(now, EventType.HANDSHAKE_CONFIRMED, self.name,
                        request.request_id)
        state = self._attacker_states.get(request.request_id)
        if state is None:
            state = AttackerGatewayState(request=request)
            self._attacker_states[request.request_id] = state
        entry = self._install_filter(request, request.timeout, "attacker-gateway")
        if entry is None:
            return
        state.filter_entry = entry
        self.log.record(now, EventType.FILTER_INSTALLED, self.name,
                        request.request_id, duration=request.timeout,
                        round=request.round_number)
        self._propagate_to_attacker(state)
        if state.grace_timer is None:
            state.grace_timer = Timer(self.sim, self._check_attacker_compliance,
                                      request.request_id)
        state.grace_timer.restart(self.config.attacker_grace_period)

    def _propagate_to_attacker(self, state: AttackerGatewayState) -> None:
        now = self.sim.now
        request = state.request
        attacker_name, attacker_address = self._resolve_attacker(request)
        if attacker_address is None:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="cannot resolve attacker")
            return
        state.attacker_name = attacker_name
        outbound = request.propagate(role=RequestRole.TO_ATTACKER, requestor=self.name)
        if not self._send_request(outbound, attacker_name, attacker_address):
            return
        self.log.record(now, EventType.REQUEST_SENT, self.name, request.request_id,
                        role=outbound.role.value, target=attacker_name,
                        round=request.round_number)

    def _check_attacker_compliance(self, request_id: int) -> None:
        """Grace period over: is the attacker still trying to send the flow?"""
        state = self._attacker_states.get(request_id)
        if state is None or state.disconnected:
            return
        if not self._blocked_recently(state.filter_entry):
            return
        if not self.disconnection_enabled:
            # Keep filtering for the rest of T; re-check at the next grace period
            # so a later stop is still noticed.
            if state.grace_timer is not None:
                state.grace_timer.restart(self.config.attacker_grace_period)
            return
        self._disconnect_from(state.attacker_name or str(state.request.label.src),
                              state.request, reason="attacker ignored filtering request")
        state.disconnected = True

    # ==================================================================
    # Attacker role (escalated rounds designate border routers as attackers)
    # ==================================================================
    def _act_as_attacker(self, request: FilteringRequest) -> None:
        now = self.sim.now
        if not self.cooperative:
            self.log.record(now, EventType.REQUEST_REJECTED, self.name,
                            request.request_id, reason="non-cooperative gateway")
            return
        if self._install_filter(request, request.timeout, "stop-own-flow") is None:
            return
        self.log.record(now, EventType.FLOW_STOPPED, self.name,
                        request.request_id, label=str(request.label))

    # ==================================================================
    # Disconnection
    # ==================================================================
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

    def _designated_attacker_gateway(self, state: VictimGatewayState) -> Optional[str]:
        index = state.current_round - 1
        if 0 <= index < len(state.attack_path):
            return state.attack_path[index]
        return None

    def _upstream_on_path(self, path: Tuple[str, ...]) -> Optional[str]:
        """The next border router on the path, one step closer to the attacker."""
        try:
            index = path.index(self.name)
        except ValueError:
            return None
        if index == 0:
            return None
        return path[index - 1]

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
