"""Experiment E8 (Sections II-E, III-B): security against forged filtering requests.

Paper claim: AITF cannot be abused by a malicious node to interrupt a
legitimate flow, unless that node is an on-path router — which could
interrupt the flow anyway by dropping packets.  The 3-way handshake is what
enforces this: only a node that can observe the attacker-to-victim path can
echo the verification nonce.

The benchmark fires a barrage of forged filtering requests at the legitimate
flow's gateways from an off-path host, measures the collateral damage to the
legitimate flow (there must be none), and then repeats the exercise with an
on-path colluder to reproduce the paper's honest caveat.
"""

from functools import partial

import pytest

from repro.analysis.report import ResultTable, format_ratio
from repro.attacks.legitimate import LegitimateTraffic
from repro.attacks.malicious import RequestForger
from repro.core.config import AITFConfig
from repro.core.deployment import deploy_aitf
from repro.core.events import EventType
from repro.core.messages import RequestRole
from repro.net.flowlabel import FlowLabel
from repro.topology.figure1 import build_figure1

from benchmarks.conftest import run_once


def run_forgery_barrage(verification_enabled=True, forged_requests=20,
                        on_path_collusion=False, duration=10.0):
    """Legitimate G_host -> B_host traffic under a forged-request barrage."""
    config = AITFConfig(filter_timeout=30.0, temporary_filter_timeout=0.6,
                        verification_enabled=verification_enabled)
    figure1 = build_figure1()
    deployment = deploy_aitf(figure1.all_nodes(), config)

    legit = LegitimateTraffic(figure1.g_host, figure1.b_host.address, rate_pps=100.0)
    legit.attach_receiver(figure1.b_host)
    legit.start()
    label = FlowLabel.between(figure1.g_host.address, figure1.b_host.address)
    reversed_path = tuple(reversed(figure1.attack_path))

    # The forger: an extra host in the attacker-side enterprise network,
    # off the G_host -> B_host forwarding path's control points.
    forger_host = figure1.topology.add_host("M_host", "B_net")
    figure1.topology.connect(forger_host, figure1.b_gw1)
    figure1.topology.build_routes()
    deployment.directory.register(forger_host)
    forger = RequestForger(forger_host)

    if on_path_collusion:
        # The claimed victim itself colludes (equivalent to an on-path node
        # snooping and echoing the nonce): it confirms the handshake.
        victim_agent = deployment.host_agent("B_host")
        victim_agent.wanted_blocks[label] = 1e9

    for index in range(forged_requests):
        target = figure1.g_gw1.address if index % 2 == 0 else figure1.g_gw2.address
        role = (RequestRole.TO_ATTACKER_GATEWAY if index % 3 else
                RequestRole.TO_VICTIM_GATEWAY)
        figure1.sim.call_at(0.1 + index * 0.2, partial(
            forger.forge_request, target, label, claimed_requestor="B_gw1",
            claimed_path=reversed_path, role=role, victim=figure1.b_host.address))
    figure1.sim.run(until=duration)

    blocked_filters = sum(
        1 for router in (figure1.g_gw1, figure1.g_gw2, figure1.g_gw3)
        for entry in router.filter_table.entries()
        if entry.label.covers(label) or entry.label == label
    )
    log = deployment.event_log
    return {
        "delivery_ratio": legit.delivery_ratio,
        "filters_against_legit_flow": blocked_filters,
        "handshake_failures": log.count(EventType.HANDSHAKE_FAILED),
        "rejections": log.count(EventType.REQUEST_REJECTED),
        "filters_installed": log.count(EventType.FILTER_INSTALLED),
        "forged_requests": forged_requests,
    }


@pytest.mark.benchmark(group="E8-forged-requests")
def test_bench_off_path_forger_cannot_blackhole_legit_traffic(benchmark):
    def run_all():
        return {
            "AITF (handshake on)": run_forgery_barrage(verification_enabled=True),
            "ablation: handshake off": run_forgery_barrage(verification_enabled=False),
            "on-path collusion": run_forgery_barrage(verification_enabled=True,
                                                     on_path_collusion=True),
        }

    results = run_once(benchmark, run_all)
    table = ResultTable(
        "E8: 20 forged requests against a legitimate G_host -> B_host flow",
        ["configuration", "legit delivery ratio", "filters hitting the flow",
         "handshake failures", "rejections"],
    )
    for label, r in results.items():
        table.add_row(label, format_ratio(r["delivery_ratio"]),
                      r["filters_against_legit_flow"], r["handshake_failures"],
                      r["rejections"])
    table.add_note("paper: a compromised node cannot abuse AITF unless it is "
                   "on-path, in which case it could drop the flow anyway")
    table.print()

    protected = results["AITF (handshake on)"]
    unverified = results["ablation: handshake off"]
    collusion = results["on-path collusion"]
    # With the handshake, zero collateral damage.
    assert protected["filters_against_legit_flow"] == 0
    assert protected["delivery_ratio"] > 0.97
    assert protected["handshake_failures"] + protected["rejections"] >= 10
    # Without it, forged requests do real damage (why the handshake exists).
    assert unverified["delivery_ratio"] < 0.9
    # On-path collusion succeeds, as the paper concedes.
    assert collusion["filters_against_legit_flow"] >= 1
    assert collusion["delivery_ratio"] < 0.9
