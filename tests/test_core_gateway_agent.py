"""Unit and integration tests for border-router AITF behaviour.

These run the real Figure-1 topology end-to-end: the victim host issues a
filtering request and the test asserts what each gateway did (temporary
filter, shadow entry, handshake, propagation, escalation, disconnection).
"""

import pytest

from repro.attacks.flood import FloodAttack
from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.core.messages import FilteringRequest, RequestRole
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
