"""Experiment E3 (Section IV-B): resources at the victim's gateway.

Paper claim: to satisfy every request from a client with contract rate R1,
the provider needs only nv = R1 * Ttmp wire-speed filters plus a DRAM cache
of mv = R1 * T entries (worked example: R1 = 100/s, Ttmp = 0.6 s, T = 1 min
=> 60 filters protect against 6000 flows).

The benchmark sweeps R1, drives the victim's gateway at exactly that request
rate, samples its wire-speed filter table and DRAM shadow cache, and checks
that peak filter occupancy tracks R1 * Ttmp — i.e. stays orders of magnitude
below the number of flows handled.
"""

import pytest

from repro.analysis.formulas import victim_gateway_filters, victim_gateway_shadow_entries
from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, default_victim_resource_spec

from benchmarks.conftest import run_once

FILTER_TIMEOUT = 30.0
TTMP = 0.5


def run_victim_gateway(rate, ttmp=TTMP, duration=4.0):
    """Drive the gateway at ``rate`` req/s; (peak filters, peak shadow, accepted)."""
    spec = default_victim_resource_spec(
        request_rate=rate, sources=40, duration=duration,
        aitf={"filter_timeout": FILTER_TIMEOUT,
              "temporary_filter_timeout": ttmp,
              "default_accept_rate": rate,
              "default_send_rate": max(rate, 10.0),
              "verification_enabled": False})
    stats = ExperimentRunner().run(spec).collector_stats
    return (stats["victim-gw-filters"]["peak"], stats["victim-gw-shadow"]["peak"],
            stats["requests"]["requests_accepted"])


def run_resource_sweep(request_rates=(20.0, 50.0, 100.0)):
    return [(rate, *run_victim_gateway(rate)) for rate in request_rates]


@pytest.mark.benchmark(group="E3-victim-gateway-resources")
def test_bench_victim_gateway_filter_occupancy_tracks_r1_ttmp(benchmark):
    rows = run_once(benchmark, run_resource_sweep)
    table = ResultTable(
        "E3: victim-gateway resources (Ttmp = 0.5 s, T = 30 s)",
        ["R1 (req/s)", "paper nv=R1*Ttmp", "peak filters", "paper mv=R1*T",
         "shadow @4s", "flows handled"],
    )
    for rate, peak_filters, peak_shadow, accepted in rows:
        table.add_row(
            f"{rate:.0f}",
            victim_gateway_filters(rate, TTMP),
            int(peak_filters),
            victim_gateway_shadow_entries(rate, FILTER_TIMEOUT),
            int(peak_shadow),
            accepted,
        )
    table.add_note("paper example: R1=100/s, Ttmp=0.6s -> nv=60 filters for Nv=6000 flows")
    table.print()

    for rate, peak_filters, peak_shadow, accepted in rows:
        predicted = victim_gateway_filters(rate, TTMP)
        # Peak wire-speed occupancy stays in the neighbourhood of R1*Ttmp...
        assert peak_filters <= 1.6 * predicted + 2
        assert peak_filters >= 0.5 * predicted
        # ...which is far below the number of flows being protected.
        assert peak_filters < 0.2 * accepted
        # The DRAM shadow grows with every accepted request (capped by mv).
        assert peak_shadow >= 0.9 * accepted


@pytest.mark.benchmark(group="E3-victim-gateway-resources")
def test_bench_ttmp_ablation_filter_cost(benchmark):
    """Ablation: keeping the temporary filter for T instead of Ttmp explodes
    the wire-speed footprint — the reason the shadow cache exists at all."""
    def run():
        return {label: run_victim_gateway(50.0, ttmp=ttmp)[0]
                for ttmp, label in ((0.5, "Ttmp=0.5s"),
                                    (8.0, "Ttmp=8s (towards T)"))}

    results = run_once(benchmark, run)
    table = ResultTable(
        "E3b ablation: temporary-filter lifetime vs wire-speed filter cost (R1=50/s)",
        ["Ttmp", "peak wire-speed filters"],
    )
    for label, peak_filters in results.items():
        table.add_row(label, int(peak_filters))
    table.print()
    small = results["Ttmp=0.5s"]
    large = results["Ttmp=8s (towards T)"]
    assert large > 4 * small
