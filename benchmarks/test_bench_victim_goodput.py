"""Experiment E11 (Sections I, III-A): legitimate goodput through the tail circuit.

Paper motivation: "if an enterprise has a 10 Mbps connection to the Internet,
an attacker can command its zombies to send traffic far exceeding this
10 Mbps rate, completely congesting the downstream link and causing normal
traffic to be dropped" — and the network operator can do nothing in time by
hand.  AITF restores the legitimate goodput within Td + Tr of the attack
starting.

The benchmark sweeps the flood intensity (as a multiple of the tail-circuit
capacity) and reports the victim's legitimate goodput with and without AITF,
plus the time AITF took to restore it.
"""

import pytest

from repro.analysis.report import ResultTable, format_bps
from repro.experiments import ExperimentRunner, default_flood_spec

from benchmarks.conftest import run_once

TAIL_CIRCUIT_BPS = 10e6
LEGIT_RATE_PPS = 400.0  # 3.2 Mbps offered


def run_goodput_sweep(multipliers=(0.5, 1.0, 2.0, 4.0)):
    rows = []
    for multiplier in multipliers:
        attack_pps = (TAIL_CIRCUIT_BPS * multiplier) / (1000 * 8)
        results = {}
        for defense in ("none", "aitf"):
            results[defense] = ExperimentRunner().run(default_flood_spec(
                defense=defense, attack_pps=attack_pps, legit_pps=LEGIT_RATE_PPS,
                filter_timeout=30.0, temporary_filter_timeout=0.6,
                topology_params={"tail_circuit_bandwidth": TAIL_CIRCUIT_BPS},
                detection_delay=0.1, duration=8.0))
        rows.append((multiplier, results["none"], results["aitf"]))
    return rows


@pytest.mark.benchmark(group="E11-victim-goodput")
def test_bench_aitf_restores_goodput_under_overload(benchmark):
    rows = run_once(benchmark, run_goodput_sweep)
    offered = LEGIT_RATE_PPS * 1000 * 8
    table = ResultTable(
        "E11: legitimate goodput on a 10 Mbps tail circuit "
        f"(offered legit {format_bps(offered)})",
        ["flood / tail capacity", "goodput no defense", "goodput AITF",
         "AITF time to block (s)"],
    )
    for multiplier, without, with_aitf in rows:
        table.add_row(f"{multiplier:.1f}x",
                      format_bps(without.legit_goodput_bps),
                      format_bps(with_aitf.legit_goodput_bps),
                      f"{with_aitf.time_to_first_block:.2f}"
                      if with_aitf.time_to_first_block else "-")
    table.add_note("the paper's introduction example: an attack far exceeding the "
                   "10 Mbps tail circuit drowns normal traffic unless filtered upstream")
    table.print()

    for multiplier, without, with_aitf in rows:
        # With AITF the legitimate goodput is essentially unharmed at any
        # flood intensity, and relief arrives within a fraction of a second.
        assert with_aitf.legit_goodput_bps > 0.9 * offered
        assert with_aitf.time_to_first_block < 0.5
        if multiplier >= 2.0:
            # Without a defense, overload squeezes legitimate traffic hard.
            assert without.legit_goodput_bps < 0.6 * offered
            # And AITF's advantage grows with the flood intensity.
            assert with_aitf.legit_goodput_bps > 1.5 * without.legit_goodput_bps
    # Goodput without defense degrades monotonically with flood intensity.
    no_defense = [without.legit_goodput_bps for _, without, _ in rows]
    assert no_defense[0] > no_defense[-1]
