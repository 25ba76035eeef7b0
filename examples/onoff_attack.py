#!/usr/bin/env python3
"""On-off attacks and why the victim's gateway keeps a DRAM shadow cache.

Section II-B of the paper: when the attacker's gateway refuses to cooperate,
the attacker can pulse its flood — send, go quiet long enough for the
victim's gateway to remove its temporary filter, then send again.  The
victim's gateway defeats this by remembering every filtering request in
cheap DRAM for the full T seconds: the moment the flow reappears it is
re-blocked (a memory lookup, no new detection delay) and the request is
escalated one provider further up.

This example runs the same pulsed attack twice — with the shadow cache and
with it ablated — and prints the difference.

Run:  python examples/onoff_attack.py
"""

from repro import ExperimentRunner
from repro.analysis.report import ResultTable, format_ratio
from repro.experiments import default_onoff_spec


def main() -> None:
    print(__doc__)
    table = ResultTable(
        "Pulsed (on-off) attack behind a non-cooperating gateway, 20 s",
        ["configuration", "attack cycles", "packets sent", "packets through",
         "leak ratio", "shadow hits", "escalated to round"],
    )
    for shadow_enabled, label in ((True, "with DRAM shadow cache"),
                                  (False, "shadow cache ablated")):
        execution = ExperimentRunner().prepare(
            default_onoff_spec(shadow_enabled=shadow_enabled, duration=20.0))
        result = execution.run()
        attack, defense = result.workload_stats[0], result.defense_stats
        table.add_row(label, attack["cycles_completed"], attack["packets_sent"],
                      execution.attack_meters[0].packets,
                      format_ratio(result.effective_bandwidth_ratio),
                      defense["shadow_hits"], defense["escalation_rounds"] or "-")
    table.add_note("with the shadow, the second burst is caught instantly and the "
                   "filter is pushed to the next provider up the path")
    table.print()


if __name__ == "__main__":
    main()
