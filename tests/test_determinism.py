"""Determinism regression: the fast-path overhaul must not move a number.

The golden values below were recorded from the *seed* implementation
(pre-overhaul: one event per generated packet, dataclass events, linear
filter-table scans, eager link serializer) running the same scenarios.
Batched generation, the slotted engine, the indexed filter table and the
lazy link serializer all re-order internal bookkeeping — but event
*ordering* (time, then scheduling sequence) is observable through queue
dynamics, so every metric the scenarios report has to come out bit-for-bit
identical.  If a future change legitimately alters these numbers, it must
say so loudly; silently shifting them means event ordering changed.

Two different runs of the same scenario in one process must also agree
exactly (no hidden global state beyond the packet/filter id counters,
which the metrics never expose).
"""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentRunner,
    default_attacker_resource_spec,
    default_flood_spec,
    default_onoff_spec,
    default_victim_resource_spec,
)

#: Flood metrics of the seed implementation, default parameters, 10 s.
GOLDEN_FLOOD_DEFAULT = {
    "duration": 10.0,
    "attack_offered_bps": 12000000.0,
    "attack_received_bps": 130526.31578947368,
    "effective_bandwidth_ratio": 0.01087719298245614,
    "legit_offered_bps": 3200000.0,
    "legit_goodput_bps": 3200000.0,
    "time_to_first_block": 0.16389920000000013,
    "time_to_attacker_gateway_filter": 0.34600927999999964,
    "escalation_rounds": 0,
    "disconnections": 0,
    "victim_gateway_peak_filters": 1.0,
    "attacker_gateway_peak_filters": 1.0,
    "requests_sent_by_victim": 1,
}

#: Same scenario with a non-cooperating gateway: escalation + disconnection.
GOLDEN_FLOOD_ESCALATION = {
    "duration": 10.0,
    "attack_offered_bps": 12000000.0,
    "attack_received_bps": 131368.42105263157,
    "effective_bandwidth_ratio": 0.010947368421052631,
    "legit_offered_bps": 3200000.0,
    "legit_goodput_bps": 3200000.0,
    "time_to_first_block": 0.16389920000000013,
    "time_to_attacker_gateway_filter": 1.3160077439999998,
    "escalation_rounds": 2,
    "disconnections": 2,
    "victim_gateway_peak_filters": 1.0,
    "attacker_gateway_peak_filters": 0.0,
    "requests_sent_by_victim": 1,
}

#: On-off metrics of the seed implementation, default parameters, 20 s.
GOLDEN_ONOFF_DEFAULT = {
    "duration": 20.0,
    "offered_bps": 2000000.0,
    "received_bps": 21818.181818181816,
    "effective_bandwidth_ratio": 0.010909090909090908,
    "shadow_hits": 1,
    "escalation_rounds": 2,
    "attack_cycles": 20,
    "packets_sent": 5011,
    "packets_received": 54,
}


#: Victim-gateway metrics of the legacy (hand-wired) implementation:
#: R1 = 50/s over a 20-source dumbbell for 3 s, T = 20 s, Ttmp = 0.5 s.
GOLDEN_VICTIM_R50 = {
    "request_rate": 50.0,
    "duration": 3.0,
    "requests_sent": 150,
    "requests_accepted": 150,
    "requests_policed": 0,
    "peak_filter_occupancy": 25.0,
    "peak_shadow_occupancy": 150.0,
    "predicted_filters": 25,
    "predicted_shadow_entries": 1000,
    "predicted_protected_flows": 1000,
}

#: Same scenario family with the attacker-side gateway refusing to cooperate.
GOLDEN_VICTIM_NONCOOP = {
    "request_rate": 40.0,
    "duration": 4.0,
    "requests_sent": 160,
    "requests_accepted": 160,
    "requests_policed": 0,
    "peak_filter_occupancy": 24.0,
    "peak_shadow_occupancy": 160.0,
    "predicted_filters": 24,
    "predicted_shadow_entries": 2400,
    "predicted_protected_flows": 2400,
}

#: Attacker-side metrics of the legacy implementation, default parameters.
GOLDEN_ATTACKER_DEFAULT = {
    "request_rate": 1.0,
    "duration": 10.0,
    "requests_delivered": 10,
    "gateway_peak_filter_occupancy": 10.0,
    "attacker_host_peak_filter_occupancy": 10.0,
    "predicted_filters": 60,
}

#: Attacker-side metrics at R2 = 2/s, T = 20 s, run past T.
GOLDEN_ATTACKER_R2 = {
    "request_rate": 2.0,
    "duration": 15.0,
    "requests_delivered": 30,
    "gateway_peak_filter_occupancy": 30.0,
    "attacker_host_peak_filter_occupancy": 30.0,
    "predicted_filters": 40,
}


def _assert_exact(actual: dict, golden: dict) -> None:
    for key, expected in golden.items():
        assert actual[key] == expected, (
            f"{key}: expected {expected!r} (seed), got {actual[key]!r} — "
            "event ordering or accounting changed"
        )


def _run(spec) -> dict:
    """Run ``spec`` and flatten what it reports into the golden dicts' key
    names (the result fields of the implementations they were recorded from)."""
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    workload, stats = result.workload_stats[-1], result.collector_stats
    flat = {**result.defense_stats, **workload, **dataclasses.asdict(result)}
    if "victim-gw-filters" in stats:
        flat.update({**stats["requests"], **stats["paper"],
                     "request_rate": workload["rate"],
                     "peak_filter_occupancy": stats["victim-gw-filters"]["peak"],
                     "peak_shadow_occupancy": stats["victim-gw-shadow"]["peak"]})
    elif "attacker-gw-filters" in stats:
        flat.update(
            request_rate=workload["rate"],
            requests_delivered=stats["requests"]["filters_installed"],
            gateway_peak_filter_occupancy=stats["attacker-gw-filters"]["peak"],
            attacker_host_peak_filter_occupancy=stats["attacker-host-filters"]["peak"],
            predicted_filters=stats["paper"]["predicted_attacker_filters"])
    elif workload["kind"] == "onoff":
        flat.update(offered_bps=result.attack_offered_bps,
                    received_bps=result.attack_received_bps,
                    attack_cycles=workload["cycles_completed"],
                    packets_received=execution.attack_meters[0].packets)
    return flat


class TestSeedGoldenMetrics:
    def test_flood_default_matches_seed_exactly(self):
        _assert_exact(_run(default_flood_spec()), GOLDEN_FLOOD_DEFAULT)

    def test_flood_escalation_matches_seed_exactly(self):
        spec = default_flood_spec(
            non_cooperating=("B_host", "B_gw1"),
            defense_params={"disconnection_enabled": True})
        _assert_exact(_run(spec), GOLDEN_FLOOD_ESCALATION)

    def test_onoff_matches_seed_exactly(self):
        _assert_exact(_run(default_onoff_spec()), GOLDEN_ONOFF_DEFAULT)


class TestResourceShimGoldenMetrics:
    """The resource experiments are specs (filter-requests workload +
    collectors); the golden values were recorded from the legacy hand-wired
    classes, so every metric must come out bit-for-bit identical."""

    def test_victim_r50_matches_legacy_exactly(self):
        spec = default_victim_resource_spec(
            request_rate=50.0, sources=20, duration=3.0,
            aitf={"filter_timeout": 20.0, "temporary_filter_timeout": 0.5,
                  "default_accept_rate": 50.0, "default_send_rate": 50.0})
        _assert_exact(_run(spec), GOLDEN_VICTIM_R50)

    def test_victim_noncooperative_matches_legacy_exactly(self):
        spec = default_victim_resource_spec(
            request_rate=40.0, sources=10, duration=4.0,
            cooperative_attacker_side=False, seed=3)
        _assert_exact(_run(spec), GOLDEN_VICTIM_NONCOOP)

    def test_attacker_default_matches_legacy_exactly(self):
        _assert_exact(_run(default_attacker_resource_spec()),
                      GOLDEN_ATTACKER_DEFAULT)

    def test_attacker_r2_matches_legacy_exactly(self):
        spec = default_attacker_resource_spec(
            request_rate=2.0, filter_timeout=20.0, duration=15.0)
        _assert_exact(_run(spec), GOLDEN_ATTACKER_R2)

    def test_victim_repeats_identically(self):
        spec = default_victim_resource_spec(request_rate=30.0, sources=10,
                                            duration=3.0)
        assert _run(spec) == _run(spec)


class TestRunToRunDeterminism:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"attack_pps": 3000.0, "detection_delay": 0.05},
        {"defense": "none"},
    ])
    def test_flood_repeats_identically(self, kwargs):
        spec = default_flood_spec(duration=5.0, **kwargs)
        assert _run(spec) == _run(spec)

    def test_onoff_repeats_identically(self):
        spec = default_onoff_spec(duration=10.0)
        assert _run(spec) == _run(spec)
