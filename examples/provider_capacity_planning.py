#!/usr/bin/env python3
"""Capacity planning for an AITF service provider.

Section IV of the paper is really a provisioning guide: given the filtering
contracts a provider signs (R1 requests/s accepted from each client, R2
requests/s sent toward each client) and the protocol timeouts (T, Ttmp), how
many wire-speed filter slots and how much DRAM must each border router have?

This example sizes a provider with a realistic client mix using the closed
formulas, then *validates* the plan by driving a simulated provider at the
contracted request rate and comparing measured peak occupancy against the
plan.

Run:  python examples/provider_capacity_planning.py
"""

from repro import ExperimentRunner
from repro.analysis import formulas
from repro.analysis.report import ResultTable
from repro.contracts.contract import ContractBook
from repro.experiments import default_victim_resource_spec

#: The protocol timeouts the provider operates with (the paper's examples).
FILTER_TIMEOUT = 60.0        # T
TEMPORARY_FILTER_TIMEOUT = 0.6   # Ttmp: traceback (0) + 3-way handshake (600 ms)

#: The provider's client portfolio: (name, R1 accepted from client, R2 sent to client).
CLIENTS = [
    ("enterprise-a", 100.0, 1.0),
    ("enterprise-b", 50.0, 1.0),
    ("campus-c", 200.0, 2.0),
    ("hosting-d", 400.0, 5.0),
    ("residential-e", 25.0, 0.5),
]


def plan_with_formulas() -> ResultTable:
    book = ContractBook()
    for name, accept_rate, send_rate in CLIENTS:
        book.add(name, accept_rate, send_rate)

    table = ResultTable(
        "Provisioning plan from the Section IV formulas (T=60 s, Ttmp=0.6 s)",
        ["client", "R1 (req/s)", "victim-side filters nv=R1*Ttmp",
         "DRAM entries mv=R1*T", "protected flows Nv=R1*T",
         "attacker-side filters na=R2*T"],
    )
    # A provider must serve all clients simultaneously, so totals are sums.
    totals = [0, 0, 0]
    for name, accept_rate, send_rate in CLIENTS:
        contract = book.get(name)
        r1, r2 = contract.accept_rate, contract.send_rate
        sizes = (formulas.victim_gateway_filters(r1, TEMPORARY_FILTER_TIMEOUT),
                 formulas.victim_gateway_shadow_entries(r1, FILTER_TIMEOUT),
                 formulas.attacker_side_filters(r2, FILTER_TIMEOUT))
        totals = [total + size for total, size in zip(totals, sizes)]
        table.add_row(name, f"{accept_rate:.0f}", sizes[0], sizes[1],
                      formulas.protected_flows(r1, FILTER_TIMEOUT), sizes[2])
    table.add_row("TOTAL", "-", totals[0], totals[1], "-", totals[2])
    table.add_note("wire-speed slots needed: victim-side total + attacker-side total; "
                   "a few hundred slots protect against tens of thousands of flows")
    return table


def validate_by_simulation() -> ResultTable:
    """Drive one contract (enterprise-a, R1=100/s) at full rate and measure."""
    spec = default_victim_resource_spec(
        request_rate=100.0, sources=40, duration=5.0,
        aitf={"filter_timeout": 20.0,
              "temporary_filter_timeout": TEMPORARY_FILTER_TIMEOUT,
              "default_accept_rate": 100.0, "default_send_rate": 100.0,
              "verification_enabled": False})
    stats = ExperimentRunner().run(spec).collector_stats
    table = ResultTable(
        "Validation: provider driven at R1=100 req/s for 5 s (T=20 s here)",
        ["quantity", "formula", "measured peak"],
    )
    table.add_row("wire-speed filters", stats["paper"]["predicted_filters"],
                  int(stats["victim-gw-filters"]["peak"]))
    table.add_row("DRAM shadow entries (grows toward mv)",
                  stats["paper"]["predicted_shadow_entries"],
                  int(stats["victim-gw-shadow"]["peak"]))
    table.add_row("requests accepted", "-", stats["requests"]["requests_accepted"])
    return table


def main() -> None:
    print(__doc__)
    plan_with_formulas().print()
    validate_by_simulation().print()


if __name__ == "__main__":
    main()
