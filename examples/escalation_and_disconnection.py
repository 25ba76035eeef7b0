#!/usr/bin/env python3
"""Walk through the paper's Section II-D example, round by round.

B_host floods G_host.  Depending on how many attacker-side gateways refuse to
cooperate, filtering lands on B_gw1 (round 1), B_gw2 (round 2), B_gw3
(round 3), or — when the whole attacker side stonewalls — G_gw3 disconnects
from B_gw3 entirely.

The example runs all four cases and prints the timeline of protocol events
for the most interesting one (everything non-cooperative).

Run:  python examples/escalation_and_disconnection.py
"""

from repro import ExperimentRunner, default_flood_spec
from repro.analysis.report import ResultTable, format_ratio
from repro.core.events import EventType

ATTACKER_SIDE = ("B_gw1", "B_gw2", "B_gw3")


def run_case(bad_gateways: int):
    """One case: the event log of the live deployment, plus the result."""
    spec = default_flood_spec(
        attack_pps=800, duration=8.0,
        filter_timeout=30.0, temporary_filter_timeout=0.8,
        non_cooperating=("B_host",) + ATTACKER_SIDE[:bad_gateways],
        defense_params={"disconnection_enabled": True},
    ).with_overrides({"aitf.attacker_grace_period": 0.5})
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    return execution.backend.deployment.event_log, result


def main() -> None:
    print(__doc__)
    table = ResultTable(
        "Escalation endgame vs number of non-cooperating attacker-side gateways",
        ["non-cooperating gateways", "rounds", "blocked by", "disconnected by",
         "attack leak"],
    )
    for bad in range(4):
        log, result = run_case(bad)
        blockers = sorted({e.node for e in log.of_type(EventType.FILTER_INSTALLED)})
        disconnectors = sorted({e.node for e in log.of_type(EventType.DISCONNECTION)
                                if e.details.get("link_found")})
        table.add_row(", ".join(ATTACKER_SIDE[:bad]) or "(none)",
                      max(1, result.defense_stats["escalation_rounds"]),
                      ", ".join(blockers) or "-",
                      ", ".join(disconnectors) or "-",
                      format_ratio(result.effective_bandwidth_ratio))
    table.print()

    print("\nProtocol timeline for the worst case (B_gw1, B_gw2 and B_gw3 all refuse):\n")
    interesting = {
        EventType.ATTACK_DETECTED, EventType.REQUEST_SENT,
        EventType.TEMP_FILTER_INSTALLED, EventType.FILTER_INSTALLED,
        EventType.ESCALATION, EventType.DISCONNECTION, EventType.FLOW_STOPPED,
    }
    for event in log:
        if event.event_type not in interesting:
            continue
        details = ", ".join(f"{k}={v}" for k, v in event.details.items()
                            if k in ("round", "target", "offender", "reason", "duration"))
        print(f"  t={event.time:7.3f}s  {event.node:8s}  {event.event_type.value:24s}  {details}")


if __name__ == "__main__":
    main()
