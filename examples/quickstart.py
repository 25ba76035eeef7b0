#!/usr/bin/env python3
"""Quickstart: block a DoS flood with AITF in ~30 lines.

Builds the paper's Figure-1 topology, launches a flood from the bad host at
the good host, lets AITF do its thing, and prints what happened:

    python examples/quickstart.py
"""

from repro import ExperimentRunner, default_flood_spec
from repro.analysis.report import format_bps, format_ratio, format_seconds


def main() -> None:
    print("AITF quickstart: one zombie floods one victim on the Figure-1 topology\n")

    # A 12 Mbps flood against a 10 Mbps tail circuit, with AITF deployed on
    # every host and border router.
    spec = default_flood_spec(
        defense="aitf",
        attack_pps=1500,           # 12 Mbps of attack traffic
        legit_pps=400,             # 3.2 Mbps of legitimate traffic
        detection_delay=0.1,       # Td: the victim notices within 100 ms
        duration=10.0,
    )
    result = ExperimentRunner().run(spec)
    attacker_gw_block = result.defense_stats["time_to_attacker_gateway_filter"]

    print(f"attack offered          : {format_bps(result.attack_offered_bps)}")
    print(f"attack reaching victim  : {format_bps(result.attack_received_bps)} "
          f"(reduction factor r = {format_ratio(result.effective_bandwidth_ratio)})")
    print(f"legitimate goodput      : {format_bps(result.legit_goodput_bps)} of "
          f"{format_bps(result.legit_offered_bps)} offered")
    print(f"time to first block     : {format_seconds(result.time_to_first_block)} "
          f"(temporary filter at the victim's gateway)")
    print(f"attacker's gateway block: {format_seconds(attacker_gw_block)} "
          f"after the attack started")
    print(f"filters used            : {int(result.victim_gateway_peak_filters)} at the "
          f"victim's gateway, {int(result.attacker_gateway_peak_filters)} at the attacker's")

    # The same attack with no defense at all, for contrast.
    undefended = ExperimentRunner().run(
        spec.with_overrides({"defense.backend": "none"}))
    print(f"\nwithout AITF the attack delivers "
          f"{format_bps(undefended.attack_received_bps)} to the victim and "
          f"legitimate goodput drops to {format_bps(undefended.legit_goodput_bps)}")


if __name__ == "__main__":
    main()
