"""Experiment E9 (Section V): AITF versus Pushback versus manual filtering.

Paper claims, qualitative but testable:

* an AITF round involves exactly four nodes, whereas pushback propagates hop
  by hop toward the attacker, involving every router on the way;
* AITF blocks the specific undesired flows at the attacker's gateway, whereas
  pushback rate-limits the whole aggregate toward the victim, so legitimate
  traffic to the victim is squeezed along with the attack;
* manual filtering leaves the victim unprotected for human-scale response
  times.

The benchmark runs the same flood under all three mechanisms (plus no
defense) and reports victim goodput, attack leakage, nodes involved and time
to relief.
"""

import pytest

from repro.analysis.report import ResultTable, format_bps, format_ratio
from repro.attacks.flood import FloodAttack
from repro.attacks.legitimate import LegitimateTraffic
from repro.analysis.metrics import FlowMeter, GoodputMeter
from repro.baselines.manual import ManualFilteringOperator
from repro.baselines.pushback import deploy_pushback
from repro.core.config import AITFConfig
from repro.core.deployment import deploy_aitf
from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.net.flowlabel import FlowLabel
from repro.topology.figure1 import build_figure1

from benchmarks.conftest import run_once

ATTACK_RATE_PPS = 2200.0   # ~17.6 Mbps against a 10 Mbps tail circuit
LEGIT_RATE_PPS = 400.0     # ~3.2 Mbps of legitimate traffic
DURATION = 12.0
ATTACK_START = 0.5


def _base_network():
    figure1 = build_figure1(extra_good_hosts=1)
    legit_sender = figure1.topology.node("G_host2")
    legit = LegitimateTraffic(legit_sender, figure1.g_host.address,
                              rate_pps=LEGIT_RATE_PPS)
    legit.attach_receiver(figure1.g_host)
    attack = FloodAttack(figure1.b_host, figure1.g_host.address,
                         rate_pps=ATTACK_RATE_PPS, start_time=ATTACK_START)
    goodput = GoodputMeter(figure1.g_host)
    attack_meter = FlowMeter(figure1.g_host, attack.flow_label)
    return figure1, legit, attack, goodput, attack_meter


def run_defense(mechanism: str):
    figure1, legit, attack, goodput, attack_meter = _base_network()
    nodes_involved = 0
    time_to_relief = None

    if mechanism == "aitf":
        config = AITFConfig(filter_timeout=30.0, temporary_filter_timeout=0.6)
        deployment = deploy_aitf(figure1.all_nodes(), config)
        detector = ExplicitDetector(deployment.host_agent("G_host"),
                                    detection_delay=0.1)
        detector.mark_undesired(figure1.b_host.address)
        deployment.host_agent("B_host").on_stop_request(attack.stop_flow_callback)
    elif mechanism == "pushback":
        # Pushback rate-limits the aggregate to just under the tail-circuit
        # capacity, which is the sensible operating point for relieving the
        # congested link.
        pushback = deploy_pushback(figure1.topology.border_routers(),
                                   limit_bps=8e6, review_interval=1.0)
        aggregate = FlowLabel.to_destination(figure1.g_host.address)
        # The congested victim-side gateway starts pushback shortly after the
        # attack begins (its own congestion detection delay).
        figure1.sim.call_at(ATTACK_START + 1.0, pushback.start_at, "G_gw1", aggregate)
    elif mechanism == "manual":
        operator = ManualFilteringOperator(figure1.sim,
                                           local_response_delay=300.0,
                                           upstream_response_delay=900.0)
        label = FlowLabel.between(figure1.b_host.address, figure1.g_host.address)
        operator.respond(label, figure1.g_gw1, figure1.g_gw2,
                         attack_start=ATTACK_START)
    elif mechanism != "none":
        raise ValueError(mechanism)

    legit.start()
    attack.start()
    figure1.sim.run(until=DURATION)

    if mechanism == "aitf":
        log = deployment.event_log
        nodes_involved = len({e.node for e in log
                              if e.event_type in (EventType.REQUEST_SENT,
                                                  EventType.REQUEST_RECEIVED,
                                                  EventType.TEMP_FILTER_INSTALLED,
                                                  EventType.FILTER_INSTALLED,
                                                  EventType.FLOW_STOPPED)})
        first = log.first(EventType.TEMP_FILTER_INSTALLED)
        if first is not None:
            time_to_relief = first.time - ATTACK_START
    elif mechanism == "pushback":
        nodes_involved = pushback.routers_involved
        time_to_relief = 1.0
    elif mechanism == "manual":
        first = operator.time_to_first_filter()
        time_to_relief = (first - ATTACK_START) if first is not None else None

    return {
        "mechanism": mechanism,
        "goodput_bps": goodput.goodput_bps(ATTACK_START, DURATION),
        "attack_leak": attack_meter.effective_bandwidth_ratio(
            attack.offered_rate_bps, ATTACK_START, DURATION),
        "nodes_involved": nodes_involved,
        "time_to_relief": time_to_relief,
    }


@pytest.mark.benchmark(group="E9-pushback-comparison")
def test_bench_aitf_vs_pushback_vs_manual(benchmark):
    def run_all():
        return [run_defense(m) for m in ("none", "manual", "pushback", "aitf")]

    results = run_once(benchmark, run_all)
    offered_legit = LEGIT_RATE_PPS * 1000 * 8
    table = ResultTable(
        f"E9: same flood (17.6 Mbps vs 10 Mbps tail circuit), legit offered "
        f"{format_bps(offered_legit)}",
        ["defense", "legit goodput", "attack leak ratio", "nodes involved",
         "time to relief (s)"],
    )
    for r in results:
        table.add_row(r["mechanism"], format_bps(r["goodput_bps"]),
                      format_ratio(r["attack_leak"]), r["nodes_involved"] or "-",
                      f"{r['time_to_relief']:.2f}" if r["time_to_relief"] else "never (in window)")
    table.add_note("pushback rate-limits the whole aggregate toward the victim, "
                   "so legitimate traffic is squeezed with the attack; AITF blocks "
                   "only the undesired flow at the attacker's gateway")
    table.print()

    by_name = {r["mechanism"]: r for r in results}
    # No defense / manual-within-minutes: the tail circuit stays congested.
    assert by_name["none"]["goodput_bps"] < 0.75 * offered_legit
    assert by_name["manual"]["goodput_bps"] < 0.75 * offered_legit
    assert by_name["manual"]["time_to_relief"] is None
    # AITF restores essentially all legitimate goodput and involves 4 nodes.
    assert by_name["aitf"]["goodput_bps"] > 0.9 * offered_legit
    assert by_name["aitf"]["nodes_involved"] == 4
    assert by_name["aitf"]["attack_leak"] < 0.05
    assert by_name["aitf"]["time_to_relief"] < 0.5
    # Pushback relieves congestion but keeps squeezing the aggregate, so the
    # victim's legitimate goodput ends up between "none" and AITF.
    assert by_name["pushback"]["goodput_bps"] > by_name["none"]["goodput_bps"]
    assert by_name["pushback"]["goodput_bps"] < by_name["aitf"]["goodput_bps"]
    # And pushback's attack leak is higher than AITF's (rate-limit vs block).
    assert by_name["pushback"]["attack_leak"] > by_name["aitf"]["attack_leak"]
