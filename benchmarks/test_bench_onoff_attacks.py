"""Experiment E7 (Section II-B / IV-A.1 with n >= 1): on-off attacks.

Paper claim: with a non-cooperating attacker's gateway, the attacker can play
"on-off games" — pause just long enough for the victim's gateway to drop its
temporary filter, then resume.  The DRAM shadow cache defeats this: the
reappearing flow matches a logged label, is re-blocked immediately (detection
of a reappearing flow is just a memory lookup, footnote 8), and triggers
escalation, so the effective bandwidth stays bounded.

The benchmark runs the on-off attacker with the shadow cache enabled and with
it ablated, and compares the fraction of the attack that reached the victim.
"""

import pytest

from repro.analysis.report import ResultTable, format_ratio
from repro.experiments import ExperimentRunner, default_onoff_spec

from benchmarks.conftest import run_once


def run_onoff(shadow_enabled: bool, duration: float = 15.0) -> dict:
    execution = ExperimentRunner().prepare(
        default_onoff_spec(shadow_enabled=shadow_enabled, duration=duration))
    result = execution.run()
    return {**result.defense_stats, **result.workload_stats[0],
            "leak": result.effective_bandwidth_ratio,
            "packets_received": execution.attack_meters[0].packets}


@pytest.mark.benchmark(group="E7-onoff")
def test_bench_shadow_cache_contains_onoff_attacks(benchmark):
    def run_both():
        return {
            "with shadow cache": run_onoff(True),
            "shadow cache ablated": run_onoff(False),
        }

    results = run_once(benchmark, run_both)
    table = ResultTable(
        "E7: on-off attack behind a non-cooperating gateway (15 s, ~6 cycles)",
        ["configuration", "attack leak ratio", "shadow hits", "max escalation round",
         "cycles", "pkts received/sent"],
    )
    for label, result in results.items():
        table.add_row(label, format_ratio(result["leak"]),
                      result["shadow_hits"], result["escalation_rounds"],
                      result["cycles_completed"],
                      f"{result['packets_received']}/{result['packets_sent']}")
    table.add_note("the shadow cache is what keeps r near n(Td+Tr)/T when the "
                   "attacker's gateway reneges (Section IV-A.1, n>=1)")
    table.print()

    protected = results["with shadow cache"]
    ablated = results["shadow cache ablated"]
    # With the shadow cache the reappearing flow is caught and escalated.
    assert protected["shadow_hits"] >= 1
    assert protected["escalation_rounds"] >= 2
    assert protected["leak"] < 0.4
    # Without it, every on-phase after the first leaks for a full detection
    # cycle, so the attacker gets substantially more through.
    assert ablated["leak"] > 1.5 * protected["leak"]


@pytest.mark.benchmark(group="E7-onoff")
def test_bench_onoff_leak_bounded_by_cycles_times_exposure(benchmark):
    """Each on-off cycle leaks roughly one reaction time's worth of traffic,
    not a whole on-phase — the quantitative version of the claim above."""
    result = run_once(benchmark, run_onoff, True, 20.0)
    table = ResultTable(
        "E7b: per-cycle leakage with the shadow cache",
        ["cycles", "packets sent", "packets received", "received per cycle"],
    )
    per_cycle = result["packets_received"] / max(1, result["cycles_completed"])
    table.add_row(result["cycles_completed"], result["packets_sent"],
                  result["packets_received"], f"{per_cycle:.0f}")
    table.print()
    # An on-phase at 1000 pps lasting ~0.6 s is ~600 packets; the shadow cache
    # holds the per-cycle leak to a small fraction of that.
    assert per_cycle < 250
    assert result["packets_received"] < result["packets_sent"] * 0.4
