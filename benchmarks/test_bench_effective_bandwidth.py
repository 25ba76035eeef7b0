"""Experiment E1 (Section IV-A.1): effective bandwidth of an undesired flow.

Paper claim: AITF reduces the effective bandwidth of an undesired flow by a
factor r ~= n(Td + Tr)/T.  With only the attacker refusing to stop (n = 1),
Tr = 50 ms and T = 1 min the paper computes r ~= 0.00083.

The benchmark floods the Figure-1 victim from a non-cooperating attacker
host behind a *cooperating* gateway, sweeps the filter timeout T, measures
the attack bytes that actually reached the victim over a full blocking
period, and compares the measured ratio with the formula.
"""

import pytest

from repro.analysis.formulas import effective_bandwidth_reduction
from repro.analysis.report import ResultTable, format_ratio
from repro.experiments import ExperimentRunner, default_flood_spec

from benchmarks.conftest import run_once

DETECTION_DELAY = 0.1
VICTIM_GATEWAY_DELAY = 0.05  # Tr = 50 ms, the paper's example value


def run_sweep(filter_timeouts=(10.0, 20.0, 40.0)):
    """Measure the effective-bandwidth ratio for several values of T."""
    rows = []
    for filter_timeout in filter_timeouts:
        spec = default_flood_spec(
            attack_pps=800.0, detection_delay=DETECTION_DELAY,
            filter_timeout=filter_timeout, temporary_filter_timeout=0.6,
            topology_params={"victim_gateway_delay": VICTIM_GATEWAY_DELAY},
            # Measure over a full blocking period plus the initial exposure.
            duration=filter_timeout + 1.0,
        ).with_overrides({"aitf.attacker_grace_period": 0.5})
        result = ExperimentRunner().run(spec)
        predicted = effective_bandwidth_reduction(
            1, DETECTION_DELAY, VICTIM_GATEWAY_DELAY, filter_timeout)
        rows.append((filter_timeout, predicted, result.effective_bandwidth_ratio))
    return rows


@pytest.mark.benchmark(group="E1-effective-bandwidth")
def test_bench_effective_bandwidth_vs_formula(benchmark):
    rows = run_once(benchmark, run_sweep)
    table = ResultTable(
        "E1: effective-bandwidth reduction r = n(Td+Tr)/T  (n=1, Td=100ms, Tr=50ms)",
        ["T (s)", "paper r", "measured r", "measured/paper"],
    )
    for filter_timeout, predicted, measured in rows:
        ratio = measured / predicted if predicted else float("inf")
        table.add_row(f"{filter_timeout:.0f}", format_ratio(predicted),
                      format_ratio(measured), f"{ratio:.2f}x")
    table.add_note("paper example: Tr=50ms, T=60s, n=1 -> r ~= 0.00083")
    table.print()

    for filter_timeout, predicted, measured in rows:
        # Shape check: measured exposure is the same order of magnitude as the
        # formula and always a small fraction of the offered bandwidth.
        assert measured < 0.1
        assert measured < 6 * predicted
    # The reduction factor improves (shrinks) as T grows, as the formula says.
    measured_values = [m for _, _, m in rows]
    assert measured_values[0] > measured_values[-1]


@pytest.mark.benchmark(group="E1-effective-bandwidth")
def test_bench_effective_bandwidth_improves_with_larger_T(benchmark):
    """The r ∝ 1/T scaling: doubling T roughly halves the leaked bandwidth."""
    rows = run_once(benchmark, run_sweep, (10.0, 40.0))
    (_, _, small_t), (_, _, large_t) = rows
    assert large_t < small_t
    assert large_t < 0.6 * small_t
