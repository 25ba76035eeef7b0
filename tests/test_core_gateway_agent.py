"""Unit and integration tests for border-router AITF behaviour.

These run the real Figure-1 topology end-to-end: the victim host issues a
filtering request and the test asserts what each gateway did (temporary
filter, shadow entry, handshake, propagation, escalation, disconnection).
"""

import copy
from functools import partial

import pytest

from repro.attacks.flood import FloodAttack
from repro.core.config import AITFConfig
from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.core.gateway_agent import Phase
from repro.core.messages import FilteringRequest, RequestRole, VerificationReply
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, PacketKind

from tests.conftest import make_deployed_figure1


def launch_attack(env, rate_pps=800.0, detection_delay=0.05):
    """Start a flood from B_host to G_host with explicit detection at the victim."""
    victim_agent = env.deployment.host_agent("G_host")
    detector = ExplicitDetector(victim_agent, detection_delay=detection_delay)
    detector.mark_undesired(env.figure1.b_host.address)
    attack = FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                         rate_pps=rate_pps, start_time=0.1)
    attacker_agent = env.deployment.host_agent("B_host")
    attacker_agent.on_stop_request(attack.stop_flow_callback)
    attack.start()
    return attack, detector


class TestVictimGatewayRole:
    def test_temporary_filter_and_shadow_installed(self, deployed_figure1):
        env = deployed_figure1
        launch_attack(env)
        env.sim.run(until=1.0)
        assert env.log.count(EventType.TEMP_FILTER_INSTALLED) >= 1
        assert env.log.count(EventType.SHADOW_LOGGED) >= 1
        g_gw1 = env.deployment.gateway_agent("G_gw1")
        assert g_gw1.shadow_cache.occupancy == 1

    def test_request_propagated_to_attacker_gateway(self, deployed_figure1):
        env = deployed_figure1
        launch_attack(env)
        env.sim.run(until=1.0)
        sent = env.log.of_type(EventType.REQUEST_SENT)
        assert any(e.node == "G_gw1"
                   and e.details.get("role") == RequestRole.TO_ATTACKER_GATEWAY.value
                   for e in sent)

    def test_temporary_filter_uses_ttmp_not_t(self, deployed_figure1):
        env = deployed_figure1
        launch_attack(env)
        env.sim.run(until=1.0)
        installs = env.log.of_type(EventType.TEMP_FILTER_INSTALLED)
        assert installs[0].details["duration"] == env.config.temporary_filter_timeout

    def test_attack_blocked_quickly_at_victim_gateway(self, deployed_figure1):
        env = deployed_figure1
        attack, _ = launch_attack(env, detection_delay=0.05)
        received = []
        env.figure1.g_host.on_receive(received.append)
        env.sim.run(until=3.0)
        # The cooperative attacker is told to stop within a fraction of a
        # second, and the victim only ever sees the head of the flood.
        attack_packets = [p for p in received if p.src == env.figure1.b_host.address]
        assert not attack.active
        assert 0 < len(attack_packets) < 300
        assert len(attack_packets) <= attack.packets_sent

    def test_forged_request_from_wrong_side_rejected(self, deployed_figure1):
        env = deployed_figure1
        # A request claiming to protect G_host but arriving from the B side:
        # B_gw2 sends it to G_gw1, whose route to G_host does not point back
        # over the inter-domain link.
        label = FlowLabel.between("10.9.9.9", env.figure1.g_host.address)
        request = FilteringRequest(label=label, timeout=10.0,
                                   role=RequestRole.TO_VICTIM_GATEWAY,
                                   requestor="B_gw2",
                                   victim=env.figure1.g_host.address,
                                   attack_path=env.figure1.attack_path)
        packet = Packet.control(env.figure1.b_gw2.address, env.figure1.g_gw1.address,
                                PacketKind.FILTERING_REQUEST, request)
        env.figure1.b_gw2.send(packet)
        env.sim.run(until=1.0)
        rejected = env.log.of_type(EventType.REQUEST_REJECTED)
        assert any(e.node == "G_gw1"
                   and "verification failed" in e.details.get("reason", "")
                   for e in rejected)
        assert env.figure1.g_gw1.filter_table.occupancy == 0


class TestAttackerGatewayRole:
    def test_handshake_then_filter_for_full_timeout(self, deployed_figure1):
        env = deployed_figure1
        launch_attack(env)
        env.sim.run(until=2.0)
        assert env.log.count(EventType.HANDSHAKE_STARTED) >= 1
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) >= 1
        installs = [e for e in env.log.of_type(EventType.FILTER_INSTALLED)
                    if e.node == "B_gw1"]
        assert len(installs) == 1
        assert installs[0].details["duration"] == pytest.approx(env.config.filter_timeout)

    def test_request_propagated_to_attacker_host(self, deployed_figure1):
        env = deployed_figure1
        launch_attack(env)
        env.sim.run(until=2.0)
        stopped = env.log.of_type(EventType.FLOW_STOPPED)
        assert any(e.node == "B_host" for e in stopped)

    def test_verification_disabled_skips_handshake(self):
        env = make_deployed_figure1()
        env.config.verification_enabled = False
        launch_attack(env)
        env.sim.run(until=2.0)
        assert env.log.count(EventType.HANDSHAKE_STARTED) == 0
        assert any(e.node == "B_gw1" for e in env.log.of_type(EventType.FILTER_INSTALLED))

    def test_non_cooperative_gateway_ignores_request(self):
        env = make_deployed_figure1()
        env.deployment.set_cooperative("B_gw1", False)
        env.deployment.set_disconnection_enabled(False)
        launch_attack(env)
        env.sim.run(until=2.0)
        assert not any(e.node == "B_gw1" for e in env.log.of_type(EventType.FILTER_INSTALLED))

    def test_attacker_disconnected_when_it_keeps_sending(self):
        env = make_deployed_figure1()
        attacker_agent = env.deployment.host_agent("B_host")
        attacker_agent.cooperative = False  # keeps flooding after the request
        launch_attack(env)
        env.sim.run(until=5.0)
        disconnections = [e for e in env.log.of_type(EventType.DISCONNECTION)
                          if e.node == "B_gw1" and e.details.get("link_found")]
        assert len(disconnections) == 1
        # After disconnection nothing from B_host gets past B_gw1.
        env.sim.run(until=8.0)
        assert env.figure1.b_gw1.stats.packets_dropped_disconnected > 0

    def test_cooperative_attacker_not_disconnected(self):
        env = make_deployed_figure1()
        launch_attack(env)
        env.sim.run(until=5.0)
        assert env.log.count(EventType.DISCONNECTION) == 0


class TestHandshake:
    """The 3-way handshake at the attacker's gateway (Section II-E), driven
    by the verification replies B_gw1 receives.  The victim G_host keeps
    the queries it is sent and answers none, so each reply is the test's."""

    def setup_env(self):
        env = make_deployed_figure1()
        queries = []
        env.figure1.g_host.control_handler = \
            lambda packet, link: queries.append(packet.payload)
        return env, env.deployment.gateway_agent("B_gw1"), queries

    def request(self, env):
        figure1 = env.figure1
        return FilteringRequest(
            label=FlowLabel.between(figure1.b_host.address, figure1.g_host.address),
            timeout=10.0, role=RequestRole.TO_ATTACKER_GATEWAY, requestor="G_gw1",
            victim=figure1.g_host.address, attack_path=figure1.attack_path)

    def deliver(self, env, payload, kind):
        figure1 = env.figure1
        figure1.b_gw1.deliver_locally(
            Packet.control(figure1.g_gw1.address, figure1.b_gw1.address,
                           kind, payload), None)

    def begin(self, env, agent, request):
        """Deliver ``request`` and return its attacker's-gateway state."""
        self.deliver(env, request, PacketKind.FILTERING_REQUEST)
        return agent._records[RequestRole.TO_ATTACKER_GATEWAY, request.request_id]

    def reply(self, env, request, nonce, confirmed=True, label=None,
              request_id=None):
        self.deliver(env, VerificationReply(
            label=label or request.label, nonce=nonce, confirmed=confirmed,
            responder=env.figure1.g_host.address,
            request_id=request.request_id if request_id is None else request_id),
            PacketKind.VERIFICATION_REPLY)

    def failures(self, env):
        return [e.details["reason"] for e in env.log.of_type(
            EventType.HANDSHAKE_FAILED) if e.node == "B_gw1"]

    def test_request_sends_the_victim_a_query_with_a_nonce(self):
        env, agent, queries = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        assert state.phase is Phase.VERIFYING and state.nonce is not None
        env.sim.run(until=0.5)
        (query,) = queries
        assert (query.label, query.nonce, query.querier, query.request_id) == (
            request.label, state.nonce, env.figure1.b_gw1.address,
            request.request_id)
        assert env.log.count(EventType.HANDSHAKE_STARTED) == 1

    def test_matching_reply_confirms_and_filters(self):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        self.reply(env, request, state.nonce)
        assert state.nonce is None and state.phase is Phase.FILTERING
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) == 1
        assert env.figure1.b_gw1.filter_table.occupancy == 1
        # The settled verification's deadline never fires.
        env.sim.run(until=3.0)
        assert self.failures(env) == []

    @pytest.mark.parametrize("forgery", ["nonce", "label"])
    def test_wrong_nonce_or_label_leaves_the_verification_pending(self, forgery):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        nonce = state.nonce
        if forgery == "nonce":
            self.reply(env, request, nonce + 1)
        else:
            self.reply(env, request, nonce,
                       label=FlowLabel.between("9.9.9.9", "10.0.1.1"))
        assert state.nonce == nonce and state.phase is Phase.VERIFYING
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) == 0
        self.reply(env, request, nonce)
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) == 1

    def test_stray_reply_is_ignored(self):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        self.reply(env, request, 1, request_id=999)
        assert agent._records == {}
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) == 0
        assert self.failures(env) == []

    def test_denial_logs_handshake_failed(self):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        self.reply(env, request, state.nonce, confirmed=False)
        assert self.failures(env) == ["victim denied the request"]
        assert state.nonce is None
        assert env.figure1.b_gw1.filter_table.occupancy == 0

    def test_timeout_logs_handshake_failed_and_a_late_reply_is_ignored(self):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        nonce = state.nonce
        env.sim.run(until=env.config.handshake_timeout + 0.5)
        assert self.failures(env) == ["verification timed out"]
        assert state.nonce is None
        self.reply(env, request, nonce)
        assert env.log.count(EventType.HANDSHAKE_CONFIRMED) == 0
        assert env.figure1.b_gw1.filter_table.occupancy == 0

    def test_repeated_request_reuses_the_nonce(self):
        env, agent, queries = self.setup_env()
        request = self.request(env)
        nonce = self.begin(env, agent, request).nonce
        assert self.begin(env, agent, request).nonce == nonce
        env.sim.run(until=0.5)
        assert [query.nonce for query in queries] == [nonce, nonce]

    def test_nonces_differ_across_requests(self):
        env, agent, _ = self.setup_env()
        nonces = {self.begin(env, agent, self.request(env)).nonce
                  for _ in range(50)}
        assert len(nonces) == 50

    def test_a_state_copies_and_compares_equal(self):
        env, agent, _ = self.setup_env()
        request = self.request(env)
        state = self.begin(env, agent, request)
        self.reply(env, request, state.nonce)
        twin = copy.copy(state)
        assert twin == state and twin is not state
        twin.phase = Phase.DISCONNECTED
        assert twin != state


class TestEscalation:
    def test_non_cooperating_attacker_gateway_triggers_escalation(self):
        env = make_deployed_figure1()
        env.deployment.set_cooperative("B_gw1", False)
        env.deployment.set_disconnection_enabled(False)
        launch_attack(env)
        env.sim.run(until=4.0)
        escalations = env.log.of_type(EventType.ESCALATION)
        assert any(e.node == "G_gw1" and e.details["round"] == 2 for e in escalations)
        # Round 2 designates B_gw2, which cooperates and installs the filter.
        assert any(e.node == "B_gw2" for e in env.log.of_type(EventType.FILTER_INSTALLED))

    def test_two_bad_gateways_push_filter_to_third(self):
        env = make_deployed_figure1()
        env.deployment.set_cooperative("B_gw1", False)
        env.deployment.set_cooperative("B_gw2", False)
        env.deployment.set_disconnection_enabled(False)
        launch_attack(env)
        env.sim.run(until=6.0)
        assert any(e.node == "B_gw3" for e in env.log.of_type(EventType.FILTER_INSTALLED))
        assert env.log.max_round() >= 3

    def test_all_attacker_side_bad_ends_in_disconnection(self):
        env = make_deployed_figure1()
        for name in ("B_gw1", "B_gw2", "B_gw3"):
            env.deployment.set_cooperative(name, False)
        launch_attack(env)
        env.sim.run(until=10.0)
        disconnections = [e for e in env.log.of_type(EventType.DISCONNECTION)
                          if e.node == "G_gw3"]
        assert disconnections, "G_gw3 should disconnect from B_gw3 in the endgame"
        # After the disconnection the flood cannot reach the victim side at all.
        assert env.figure1.g_gw3.is_disconnected(
            env.figure1.g_gw3.link_to(env.figure1.b_gw3))

    def test_escalation_can_be_disabled(self):
        env = make_deployed_figure1()
        env.config.escalation_enabled = False
        env.deployment.set_cooperative("B_gw1", False)
        env.deployment.set_disconnection_enabled(False)
        launch_attack(env)
        env.sim.run(until=4.0)
        assert env.log.count(EventType.ESCALATION) == 0


class TestContractPolicing:
    def test_refused_escalation_keeps_round_and_disconnects_nobody(self):
        """An escalation the outbound contract refuses is retried later; it
        neither advances the round nor ends, rounds later, in disconnecting
        a provider that never received a request."""
        env = make_deployed_figure1()
        env.config.default_send_rate = 0.05
        env.deployment.set_cooperative("B_gw1", False)
        launch_attack(env)
        env.sim.run(until=10.0)
        refused = [e for e in env.log.of_type(EventType.REQUEST_POLICED)
                   if e.node == "G_gw1" and e.details.get("direction") == "outbound"]
        assert refused and {e.details["target"] for e in refused} == {"G_gw2"}
        assert env.log.count(EventType.ESCALATION) == 0
        assert env.log.count(EventType.DISCONNECTION) == 0
        expired = env.log.last(EventType.TEMP_FILTER_EXPIRED, node="G_gw1")
        assert expired.time > 9.0 and expired.details["round"] == 1

    def test_round_refused_by_own_outbound_contract_is_resent_not_escalated(self):
        """A round-1 request G_gw1's own outbound contract refused never
        reached B_gw1, so at Ttmp expiry G_gw1 sends it again instead of
        escalating past a gateway that was never asked."""
        env = make_deployed_figure1(AITFConfig(default_send_rate=1.0))
        figure1 = env.figure1
        env.deployment.host_agent("B_host").cooperative = False
        victim_agent = env.deployment.host_agent("G_host")
        path = figure1.topology.border_router_path(figure1.b_host, figure1.g_host)
        for port in (80, 81):
            FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=200.0,
                        dst_port=port).start()
            label = FlowLabel.between(figure1.b_host.address,
                                      figure1.g_host.address, dst_port=port)
            env.sim.call_at(0.3, partial(victim_agent.request_filtering, label,
                                         attack_path=path))
        env.sim.run(until=4.0)
        first, second = [e.request_id for e in env.log.of_type(
            EventType.REQUEST_SENT) if e.node == "G_host"]
        refused = [e for e in env.log.of_type(EventType.REQUEST_POLICED)
                   if e.details.get("direction") == "outbound"]
        assert [(e.node, e.request_id) for e in refused] == [("G_gw1", second)]
        assert env.log.count(EventType.ESCALATION) == 0
        resent = [e for e in env.log.of_type(EventType.REQUEST_SENT)
                  if e.node == "G_gw1" and e.request_id == second]
        assert [(e.details["target"], e.details["round"]) for e in resent] == [
            ("B_gw1", 1)]
        assert resent[0].time == pytest.approx(
            refused[0].time + env.config.effective_escalation_grace)
        assert {(e.node, e.request_id) for e in env.log.of_type(
            EventType.FILTER_INSTALLED)} == {("B_gw1", first), ("B_gw1", second)}

    def test_excess_requests_policed_at_victim_gateway(self):
        env = make_deployed_figure1()
        gateway = env.deployment.gateway_agent("G_gw1")
        gateway.contracts.add("G_host", accept_rate=2.0, send_rate=100.0,
                              accept_burst=2.0)
        victim_agent = env.deployment.host_agent("G_host")
        for port in range(8):
            label = FlowLabel.between(env.figure1.b_host.address,
                                      env.figure1.g_host.address, dst_port=port)
            victim_agent.request_filtering(label, attack_path=env.figure1.attack_path)
        # Stop while the temporary filters (Ttmp = 0.5 s) are still installed.
        env.sim.run(until=0.2)
        policed = [e for e in env.log.of_type(EventType.REQUEST_POLICED)
                   if e.node == "G_gw1"]
        assert len(policed) == 6
        assert env.figure1.g_gw1.filter_table.occupancy == 2
