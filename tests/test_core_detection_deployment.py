"""Unit tests for attack detection and AITF deployment plumbing."""

import pytest

from repro.attacks.flood import FloodAttack
from repro.core.config import AITFConfig
from repro.core.deployment import deploy_aitf
from repro.core.detection import ExplicitDetector, RateBasedDetector
from repro.core.events import EventType
from repro.core.messages import DisconnectNotice
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, PacketKind
from repro.topology.figure1 import build_figure1

from tests.conftest import make_deployed_figure1


class TestExplicitDetector:
    def test_marked_source_triggers_request(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = ExplicitDetector(agent, detection_delay=0.0)
        detector.mark_undesired(env.figure1.b_host.address)
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=200.0).start()
        env.sim.run(until=0.5)
        assert detector.detections >= 1
        assert agent.requests_sent >= 1

    def test_unmarked_sources_ignored(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = ExplicitDetector(agent, detection_delay=0.0)
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=200.0).start()
        env.sim.run(until=0.5)
        assert detector.detections == 0
        assert agent.requests_sent == 0

    def test_detection_delay_applied(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = ExplicitDetector(agent, detection_delay=0.5)
        detector.mark_undesired(env.figure1.b_host.address)
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=500.0, start_time=0.0).start()
        env.sim.run(until=2.0)
        first_sent = env.log.first(EventType.REQUEST_SENT, node="G_host")
        assert first_sent is not None
        assert first_sent.time >= 0.5

    def test_unmark_stops_future_detections(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = ExplicitDetector(agent, detection_delay=0.0)
        detector.mark_undesired(env.figure1.b_host.address)
        detector.unmark(env.figure1.b_host.address)
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=200.0).start()
        env.sim.run(until=0.5)
        assert detector.detections == 0


class TestRateBasedDetector:
    def test_flood_above_threshold_detected(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = RateBasedDetector(agent, rate_threshold_bps=1e6,
                                     window=0.2, detection_delay=0.1)
        # 800 pps x 1000 B = 6.4 Mbps >> 1 Mbps threshold.
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=800.0).start()
        env.sim.run(until=2.0)
        assert detector.detections >= 1
        assert agent.requests_sent >= 1
        assert env.log.count(EventType.ATTACK_DETECTED) >= 1

    def test_slow_traffic_not_detected(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = RateBasedDetector(agent, rate_threshold_bps=5e6,
                                     window=0.2, detection_delay=0.1)
        FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                    rate_pps=50.0).start()  # 0.4 Mbps, below threshold
        env.sim.run(until=2.0)
        assert detector.detections == 0

    def test_known_bad_label_reported_immediately_on_reappearance(self, deployed_figure1):
        env = deployed_figure1
        agent = env.deployment.host_agent("G_host")
        detector = RateBasedDetector(agent, rate_threshold_bps=1e6,
                                     window=0.2, detection_delay=0.1)
        attack = FloodAttack(env.figure1.b_host, env.figure1.g_host.address,
                             rate_pps=800.0)
        attack.start()
        env.sim.run(until=1.0)
        assert detector.detections >= 1
        label = FlowLabel.between(env.figure1.b_host.address, env.figure1.g_host.address)
        assert label in detector.known_bad_labels

    def test_invalid_parameters_rejected(self, deployed_figure1):
        agent = deployed_figure1.deployment.host_agent("G_host")
        with pytest.raises(ValueError):
            RateBasedDetector(agent, rate_threshold_bps=0.0)
        with pytest.raises(ValueError):
            RateBasedDetector(agent, window=0.0)
        with pytest.raises(ValueError):
            RateBasedDetector(agent, detection_delay=-1.0)


class TestDeployment:
    def test_every_host_and_router_gets_an_agent(self):
        figure1 = build_figure1()
        deployment = deploy_aitf(figure1.all_nodes(), AITFConfig())
        assert set(deployment.gateway_agents) == {
            "G_gw1", "G_gw2", "G_gw3", "B_gw1", "B_gw2", "B_gw3",
        }
        assert set(deployment.host_agents) == {"G_host", "B_host"}
        assert len(deployment.all_agents()) == 8

    def test_directory_contains_every_node(self):
        figure1 = build_figure1()
        deployment = deploy_aitf(figure1.all_nodes(), AITFConfig())
        for node in figure1.all_nodes():
            assert node.name in deployment.directory

    def test_set_cooperative_flips_flags(self):
        env = make_deployed_figure1()
        env.deployment.set_cooperative("B_gw1", False)
        env.deployment.set_cooperative("B_host", False)
        assert not env.deployment.gateway_agent("B_gw1").cooperative
        assert not env.deployment.host_agent("B_host").cooperative
        with pytest.raises(KeyError):
            env.deployment.set_cooperative("no-such-node", False)

    def test_set_disconnection_enabled(self):
        env = make_deployed_figure1()
        env.deployment.set_disconnection_enabled(False)
        assert all(not agent.disconnection_enabled
                   for agent in env.deployment.gateway_agents.values())

    def test_shared_event_log_and_config(self):
        env = make_deployed_figure1()
        agents = env.deployment.all_agents()
        assert all(agent.log is env.deployment.event_log for agent in agents)
        assert all(agent.config is env.config for agent in agents)

    @pytest.mark.parametrize("late_address", [False, True],
                             ids=["registered", "added-after-register"])
    def test_control_packet_wakes_exactly_its_gateway(self, late_address):
        """Every dormant gateway shares one control handler; a control
        packet builds the agent of the router it is addressed to (found by
        address, also one added after the directory indexed the router)
        and no other."""
        figure1 = build_figure1()
        deployment = deploy_aitf(figure1.all_nodes(), AITFConfig())
        gateway = figure1.b_gw2
        handlers = {id(router.control_handler)
                    for router in figure1.all_nodes()
                    if router.name in deployment.gateway_agents}
        assert handlers == {id(gateway.control_handler)}
        dst = (gateway.add_address("10.250.0.1") if late_address
               else gateway.address)
        notice = Packet.control(figure1.g_host.address, dst,
                                PacketKind.DISCONNECT_NOTICE,
                                DisconnectNotice(offender="B_host",
                                                 reason="test"))
        gateway.receive_packet(notice, gateway.links[0])
        assert [agent.name for agent in deployment.gateway_agents.built()] == [
            "B_gw2"]
        assert gateway.control_handler == deployment.gateway_agent(
            "B_gw2")._handle_control
        events = deployment.event_log.of_type(EventType.DISCONNECTION)
        assert [(event.node, event.details["notice"]) for event in events] == [
            ("B_gw2", True)]

    def test_victim_gateway_capacity_override(self):
        figure1 = build_figure1()
        config = AITFConfig(victim_gateway_filter_capacity=7)
        deploy_aitf(figure1.all_nodes(), config)
        assert figure1.g_gw1.filter_table.capacity == 7
