"""Unit tests for end-host AITF behaviour (victim and attacker roles)."""


from repro.attacks.flood import FloodAttack
from repro.core.events import EventType
from repro.core.messages import FilteringRequest, RequestRole, VerificationQuery
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, PacketKind

from tests.conftest import make_deployed_figure1


class TestVictimRole:
    def test_request_filtering_sends_to_gateway(self, deployed_figure1):
        env = deployed_figure1
        victim = env.deployment.host_agent("G_host")
        label = FlowLabel.between(env.figure1.b_host.address, env.figure1.g_host.address)
        request = victim.request_filtering(label, attack_path=env.figure1.attack_path)
        assert request is not None
        env.sim.run(until=1.0)
        received = env.log.of_type(EventType.REQUEST_RECEIVED)
        assert any(e.node == "G_gw1" for e in received)

    def test_duplicate_request_suppressed_while_outstanding(self, deployed_figure1):
        env = deployed_figure1
        victim = env.deployment.host_agent("G_host")
        label = FlowLabel.between(env.figure1.b_host.address, env.figure1.g_host.address)
        assert victim.request_filtering(label) is not None
        assert victim.request_filtering(label) is None
        assert victim.requests_sent == 1

    def test_wants_blocked_expires_after_timeout(self, deployed_figure1):
        env = deployed_figure1
        victim = env.deployment.host_agent("G_host")
        label = FlowLabel.between("10.9.9.9", env.figure1.g_host.address)
        victim.request_filtering(label, timeout=1.0)
        assert victim.wants_blocked(label)
        env.sim.run(until=2.0)
        assert not victim.wants_blocked(label)

    def test_request_uses_sample_packet_route_record(self, deployed_figure1):
        env = deployed_figure1
        victim = env.deployment.host_agent("G_host")
        packet = Packet.data(env.figure1.b_host.address, env.figure1.g_host.address)
        for name in ("B_gw1", "B_gw2", "G_gw1"):
            packet.stamp_route(name)
        label = FlowLabel.between(packet.src, packet.dst)
        request = victim.request_filtering(label, sample_packet=packet)
        assert request.attack_path == ("B_gw1", "B_gw2", "G_gw1")

    def test_answers_verification_query_positively_for_wanted_block(self, deployed_figure1):
        env = deployed_figure1
        victim = env.deployment.host_agent("G_host")
        label = FlowLabel.between(env.figure1.b_host.address, env.figure1.g_host.address)
        victim.request_filtering(label)
        query = VerificationQuery(label=label, nonce=42,
                                  querier=env.figure1.b_gw1.address, request_id=1)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.g_host.address,
                                PacketKind.VERIFICATION_QUERY, query)
        env.figure1.g_host.deliver_locally(packet, None)
        assert victim.queries_answered == 1

    def test_answers_query_negatively_for_unknown_label(self, deployed_figure1):
        env = deployed_figure1
        b_gw1_agent = env.deployment.gateway_agent("B_gw1")
        replies = []
        b_gw1_agent._on_reply = replies.append
        label = FlowLabel.between("10.9.9.9", env.figure1.g_host.address)
        query = VerificationQuery(label=label, nonce=42,
                                  querier=env.figure1.b_gw1.address, request_id=1)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.g_host.address,
                                PacketKind.VERIFICATION_QUERY, query)
        env.figure1.g_host.deliver_locally(packet, None)
        env.sim.run(until=1.0)
        assert len(replies) == 1
        assert replies[0].confirmed is False


class TestAttackerRole:
    def _request_to_attacker(self, env, label=None):
        label = label or FlowLabel.between(env.figure1.b_host.address,
                                           env.figure1.g_host.address)
        return FilteringRequest(label=label, timeout=10.0,
                                role=RequestRole.TO_ATTACKER,
                                requestor="B_gw1",
                                victim=env.figure1.g_host.address)

    def test_cooperative_attacker_stops_flow(self):
        env = make_deployed_figure1()
        attacker = env.deployment.host_agent("B_host")
        attack = FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                             rate_pps=100.0)
        attacker.on_stop_request(attack.stop_flow_callback)
        attack.start()
        env.sim.run(until=0.5)
        assert attack.active
        request = self._request_to_attacker(env)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.b_host.address,
                                PacketKind.FILTERING_REQUEST, request)
        env.figure1.b_host.deliver_locally(packet, None)
        assert not attack.active
        assert attacker.flows_stopped == 1

    def test_outbound_filter_suppresses_matching_traffic(self):
        env = make_deployed_figure1()
        attacker = env.deployment.host_agent("B_host")
        request = self._request_to_attacker(env)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.b_host.address,
                                PacketKind.FILTERING_REQUEST, request)
        env.figure1.b_host.deliver_locally(packet, None)
        assert attacker.outbound_filters.occupancy == 1
        data = Packet.data(env.figure1.b_host.address, env.figure1.g_host.address)
        assert not env.figure1.b_host.send(data)

    def test_non_cooperative_attacker_ignores_request(self):
        env = make_deployed_figure1()
        attacker = env.deployment.host_agent("B_host")
        attacker.cooperative = False
        request = self._request_to_attacker(env)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.b_host.address,
                                PacketKind.FILTERING_REQUEST, request)
        env.figure1.b_host.deliver_locally(packet, None)
        assert attacker.flows_stopped == 0
        assert attacker.outbound_filters.occupancy == 0
        rejected = env.log.of_type(EventType.REQUEST_REJECTED)
        assert any(e.node == "B_host" for e in rejected)

    def test_request_with_unexpected_role_rejected(self):
        env = make_deployed_figure1()
        label = FlowLabel.between(env.figure1.b_host.address, env.figure1.g_host.address)
        request = FilteringRequest(label=label, timeout=10.0,
                                   role=RequestRole.TO_ATTACKER_GATEWAY,
                                   victim=env.figure1.g_host.address)
        packet = Packet.control(env.figure1.b_gw1.address, env.figure1.b_host.address,
                                PacketKind.FILTERING_REQUEST, request)
        env.figure1.b_host.deliver_locally(packet, None)
        agent = env.deployment.host_agent("B_host")
        assert agent.flows_stopped == 0
        rejected = env.log.of_type(EventType.REQUEST_REJECTED)
        assert any("unexpected role" in e.details.get("reason", "") for e in rejected)

    def test_outbound_filter_capacity_limit(self):
        env = make_deployed_figure1()
        attacker = env.deployment.host_agent("B_host")
        attacker.outbound_filters.capacity = 1
        for port in (80, 443):
            label = FlowLabel.between(env.figure1.b_host.address,
                                      env.figure1.g_host.address, dst_port=port)
            request = FilteringRequest(label=label, timeout=10.0,
                                       role=RequestRole.TO_ATTACKER,
                                       victim=env.figure1.g_host.address)
            packet = Packet.control(env.figure1.b_gw1.address,
                                    env.figure1.b_host.address,
                                    PacketKind.FILTERING_REQUEST, request)
            env.figure1.b_host.deliver_locally(packet, None)
        failures = env.log.of_type(EventType.FILTER_INSTALL_FAILED)
        assert any(e.node == "B_host" for e in failures)
