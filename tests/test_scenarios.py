"""The paper's canonical experiments, run as specs: flood defense, on-off
evasion, and the victim-/attacker-side resource measurements."""

from repro.experiments import (
    ExperimentRunner,
    default_attacker_resource_spec,
    default_flood_spec,
    default_onoff_spec,
    default_victim_resource_spec,
)


run = ExperimentRunner().run


def victim_r50_spec(accept_rate, send_rate):
    """R1 = 50/s offered for 3 s against the given contract rates (T = 20 s)."""
    return default_victim_resource_spec(
        request_rate=50.0, sources=20, duration=3.0,
        aitf={"filter_timeout": 20.0, "temporary_filter_timeout": 0.5,
              "default_accept_rate": accept_rate, "default_send_rate": send_rate})


class TestFloodDefenseScenario:
    def test_aitf_blocks_the_flood_and_preserves_goodput(self):
        result = run(default_flood_spec(duration=6.0))
        assert result.effective_bandwidth_ratio < 0.05
        assert result.time_to_first_block is not None
        assert result.time_to_first_block < 0.5
        assert result.defense_stats["time_to_attacker_gateway_filter"] is not None
        assert result.legit_delivery_ratio > 0.9

    def test_without_aitf_the_flood_gets_through(self):
        result = run(default_flood_spec(defense="none", duration=6.0))
        assert result.effective_bandwidth_ratio > 0.3
        assert result.time_to_first_block is None

    def test_goodput_much_better_with_aitf_when_flood_exceeds_tail_circuit(self):
        r_with = run(default_flood_spec(attack_pps=2500.0, duration=6.0))
        r_without = run(default_flood_spec(defense="none", attack_pps=2500.0,
                                           duration=6.0))
        assert r_with.legit_goodput_bps > 1.5 * r_without.legit_goodput_bps

    def test_non_cooperating_gateway_forces_escalation(self):
        result = run(default_flood_spec(
            non_cooperating=("B_host", "B_gw1"), filter_timeout=30.0,
            temporary_filter_timeout=0.5, duration=6.0))
        assert result.defense_stats["escalation_rounds"] >= 2
        assert result.effective_bandwidth_ratio < 0.1

    def test_victim_gateway_uses_single_filter(self):
        result = run(default_flood_spec(duration=4.0))
        assert result.victim_gateway_peak_filters == 1.0
        assert result.attacker_gateway_peak_filters == 1.0
        assert result.defense_stats["requests_sent_by_victim"] == 1


class TestOnOffScenario:
    def test_shadow_cache_detects_and_escalates(self):
        result = run(default_onoff_spec(duration=12.0))
        assert result.workload_stats[0]["cycles_completed"] >= 2
        assert result.defense_stats["shadow_hits"] >= 1
        assert result.defense_stats["escalation_rounds"] >= 2
        assert result.effective_bandwidth_ratio < 0.35

    def test_effective_bandwidth_bounded(self):
        execution = ExperimentRunner().prepare(default_onoff_spec(duration=12.0))
        result = execution.run()
        assert 0.0 <= result.effective_bandwidth_ratio < 1.0
        assert (execution.attack_meters[0].packets
                < result.workload_stats[0]["packets_sent"])


class TestResourceScenarios:
    def test_victim_gateway_filters_track_r1_times_ttmp(self):
        result = run(victim_r50_spec(accept_rate=50.0, send_rate=50.0))
        stats = result.collector_stats
        assert result.workload_stats[0]["requests_sent"] == 150
        # Peak wire-speed occupancy should be near R1 * Ttmp = 25, far below
        # the number of flows handled.
        predicted = stats["paper"]["predicted_filters"]
        assert predicted == 25
        assert predicted * 0.5 <= stats["victim-gw-filters"]["peak"] <= predicted * 1.5
        # The shadow cache grows toward R1 * T, bounded by requests sent.
        assert (stats["victim-gw-shadow"]["peak"]
                >= stats["requests"]["requests_accepted"] * 0.9)

    def test_policing_kicks_in_above_contract_rate(self):
        result = run(victim_r50_spec(accept_rate=10.0, send_rate=100.0))
        requests = result.collector_stats["requests"]
        assert requests["requests_policed"] > 0
        assert requests["requests_accepted"] < result.workload_stats[0]["requests_sent"]

    def test_attacker_gateway_filters_track_r2_times_t(self):
        result = run(default_attacker_resource_spec(
            request_rate=2.0, filter_timeout=20.0, duration=15.0))
        stats = result.collector_stats
        predicted = stats["paper"]["predicted_attacker_filters"]
        assert predicted == 40
        assert stats["requests"]["filters_installed"] >= 25
        # Occupancy keeps growing toward R2*T; by t=15 it is about R2*15 = 30.
        assert 20 <= stats["attacker-gw-filters"]["peak"] <= predicted
        # The attacker host holds about the same number of its own filters.
        assert stats["attacker-host-filters"]["peak"] >= 20
