"""Analysis: formulas, measurement instruments and report tables.

* :mod:`repro.analysis.formulas` — the closed-form expressions of Section IV
  plus the paper's worked numeric examples.
* :mod:`repro.analysis.metrics` — flow meters, goodput meters and occupancy
  samplers the experiments attach to the simulation.
* :mod:`repro.analysis.report` — paper-style result tables.
"""

from repro.analysis.formulas import (
    PAPER_EXAMPLES,
    PaperExamples,
    attacker_side_filters,
    effective_bandwidth,
    effective_bandwidth_reduction,
    protected_flows,
    victim_gateway_filters,
    victim_gateway_shadow_entries,
)
from repro.analysis.metrics import FlowMeter, GoodputMeter, OccupancySampler, TimeSeries
from repro.analysis.report import (
    ResultTable,
    format_bps,
    format_ratio,
    format_seconds,
)

__all__ = [
    "PAPER_EXAMPLES",
    "PaperExamples",
    "attacker_side_filters",
    "effective_bandwidth",
    "effective_bandwidth_reduction",
    "protected_flows",
    "victim_gateway_filters",
    "victim_gateway_shadow_entries",
    "FlowMeter",
    "GoodputMeter",
    "OccupancySampler",
    "TimeSeries",
    "ResultTable",
    "format_bps",
    "format_ratio",
    "format_seconds",
]
