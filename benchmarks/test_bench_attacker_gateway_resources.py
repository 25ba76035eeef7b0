"""Experiments E4 and E5 (Sections IV-C, IV-D): attacker-side resources.

Paper claim: if a provider may send R2 filtering requests per second to a
client, the provider needs na = R2 * T filters to enforce them, and the
client needs the same na = R2 * T filters to honour them (worked example:
R2 = 1/s, T = 1 min  =>  60 filters each).

The benchmark streams requests toward one client at rate R2 and samples both
the attacker's gateway's wire-speed table and the attacker host's own
outbound filter table.
"""

import pytest

from repro.analysis.formulas import attacker_side_filters
from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, default_attacker_resource_spec

from benchmarks.conftest import run_once

FILTER_TIMEOUT = 20.0


def run_attacker_side(rate, duration):
    """(gateway peak filters, attacker-host peak filters, requests honoured)."""
    stats = ExperimentRunner().run(default_attacker_resource_spec(
        request_rate=rate, filter_timeout=FILTER_TIMEOUT,
        duration=duration)).collector_stats
    return (stats["attacker-gw-filters"]["peak"],
            stats["attacker-host-filters"]["peak"],
            stats["requests"]["filters_installed"])


def run_attacker_side_sweep(request_rates=(1.0, 2.0, 4.0)):
    # Run past T so the filter population reaches its steady state R2*T.
    return [(rate, *run_attacker_side(rate, FILTER_TIMEOUT + 5.0))
            for rate in request_rates]


@pytest.mark.benchmark(group="E4-E5-attacker-side-resources")
def test_bench_attacker_gateway_and_host_filters_track_r2_t(benchmark):
    rows = run_once(benchmark, run_attacker_side_sweep)
    table = ResultTable(
        "E4/E5: attacker-side filters, na = R2*T  (T = 20 s)",
        ["R2 (req/s)", "paper na=R2*T", "gateway peak filters",
         "attacker-host peak filters", "requests honoured"],
    )
    for rate, gateway_peak, host_peak, honoured in rows:
        table.add_row(
            f"{rate:.0f}",
            attacker_side_filters(rate, FILTER_TIMEOUT),
            int(gateway_peak),
            int(host_peak),
            honoured,
        )
    table.add_note("paper example: R2=1/s, T=60s -> na=60 filters at provider and client")
    table.print()

    for rate, gateway_peak, host_peak, _ in rows:
        predicted = attacker_side_filters(rate, FILTER_TIMEOUT)
        # Steady-state occupancy approaches R2*T at both the gateway (E4) and
        # the attacker host (E5), and never exceeds it.
        assert gateway_peak <= predicted + 1
        assert gateway_peak >= 0.7 * predicted
        assert host_peak <= predicted + 1
        assert host_peak >= 0.7 * predicted
    # Linear scaling in R2.
    assert rows[-1][1] > 2.5 * rows[0][1]


@pytest.mark.benchmark(group="E4-E5-attacker-side-resources")
def test_bench_attacker_side_filters_bounded_regardless_of_attack_width(benchmark):
    """The provider's exposure is bounded by its own contract (R2*T), not by
    how many flows the attacker tries to start."""
    gateway_peak, host_peak, _ = run_once(
        benchmark, run_attacker_side, 2.0, FILTER_TIMEOUT * 2)
    predicted = attacker_side_filters(2.0, FILTER_TIMEOUT)
    table = ResultTable(
        "E4b: filters stay bounded over 2T of sustained requests",
        ["duration", "paper na", "gateway peak", "host peak"],
    )
    table.add_row(f"{FILTER_TIMEOUT * 2:.0f} s", predicted,
                  int(gateway_peak), int(host_peak))
    table.print()
    assert gateway_peak <= predicted + 1
    assert host_peak <= predicted + 1
