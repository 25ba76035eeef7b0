"""Experiment E2 (Section IV-A.2): number of undesired flows a client is protected against.

Paper claim: a client allowed to send R1 filtering requests per second is
protected against Nv = R1 * T simultaneous undesired flows (worked example:
R1 = 100/s, T = 1 min  =>  Nv = 6000).

The benchmark drives the victim's gateway with distinct filtering requests at
rate R1, counts how many distinct flows end up simultaneously under an active
block, and checks that requests beyond the contract rate are policed rather
than crashing the gateway.
"""

import pytest

from repro.analysis.formulas import protected_flows
from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, default_victim_resource_spec

from benchmarks.conftest import run_once

FILTER_TIMEOUT = 20.0


def prepare_victim_gateway(request_rate, accept_rate, send_rate, duration):
    return ExperimentRunner().prepare(default_victim_resource_spec(
        request_rate=request_rate, sources=30, duration=duration,
        aitf={"filter_timeout": FILTER_TIMEOUT,
              "temporary_filter_timeout": 0.5,
              "default_accept_rate": accept_rate,
              "default_send_rate": send_rate,
              "verification_enabled": False}))


def run_protection_sweep(request_rates=(10.0, 25.0, 50.0), duration=10.0):
    """For each contract rate R1, count flows concurrently protected."""
    rows = []
    for rate in request_rates:
        execution = prepare_victim_gateway(rate, rate, max(rate, 10.0), duration)
        requests = execution.run().collector_stats["requests"]
        predicted_nv = protected_flows(rate, FILTER_TIMEOUT)
        # Flows protected simultaneously at the end of the run: every accepted
        # request whose T-second block is still live, visible as shadow entries.
        gateway_agent = execution.backend.deployment.gateway_agent(
            execution.handle.victim_gateway.name)
        measured_live = gateway_agent.shadow_cache.occupancy
        rows.append((rate, predicted_nv, requests["requests_accepted"],
                     requests["requests_policed"], measured_live, duration))
    return rows


@pytest.mark.benchmark(group="E2-protected-flows")
def test_bench_protected_flows_scale_with_r1_times_t(benchmark):
    rows = run_once(benchmark, run_protection_sweep)
    table = ResultTable(
        "E2: flows protected, Nv = R1*T  (T = 20 s, 10 s request burst)",
        ["R1 (req/s)", "paper Nv", "accepted", "policed", "live blocks @10s",
         "expected live (R1*10s)"],
    )
    for rate, predicted, accepted, policed, live, duration in rows:
        table.add_row(f"{rate:.0f}", predicted, accepted, policed, int(live),
                      int(rate * duration))
    table.add_note("paper example: R1=100/s, T=60s -> Nv=6000")
    table.print()

    for rate, predicted, accepted, policed, live, duration in rows:
        expected_live = rate * duration  # duration < T so every block is still live
        assert live >= 0.85 * expected_live
        assert live <= 1.1 * expected_live
        assert predicted == int(rate * FILTER_TIMEOUT)
    # Protection scales linearly with R1.
    assert rows[-1][4] > 4 * rows[0][4]


@pytest.mark.benchmark(group="E2-protected-flows")
def test_bench_requests_beyond_contract_rate_are_policed(benchmark):
    """Offering requests at 5x the contract rate must not inflate protection."""
    def run():
        result = prepare_victim_gateway(50.0, 10.0, 50.0, duration=5.0).run()
        return (result.workload_stats[0]["requests_sent"],
                result.collector_stats["requests"])

    requests_sent, requests = run_once(benchmark, run)
    table = ResultTable(
        "E2b: over-rate requests are dropped by contract policing",
        ["offered req", "accepted", "policed", "contract rate"],
    )
    table.add_row(requests_sent, requests["requests_accepted"],
                  requests["requests_policed"], "10 req/s")
    table.print()
    assert requests["requests_policed"] > 0
    # Acceptance stays near the contract rate x duration (10/s * 5 s = 50).
    assert requests["requests_accepted"] <= 80
    assert requests["requests_accepted"] >= 40
