"""Experiment E6 (Section II-D / Figure 1): escalation rounds.

Paper claim: each round involves exactly four nodes and pushes filtering to
the k-th closest AITF node to the attacker; if every attacker-side gateway
refuses, the victim-side edge of the inter-provider boundary disconnects
(G_gw3 disconnects from B_gw3).

The benchmark sweeps the number of non-cooperating attacker-side gateways
from 0 to 3 and reports which node ended up filtering, how many rounds it
took, and whether the endgame disconnection happened.
"""

import pytest

from repro.analysis.report import ResultTable
from repro.core.events import EventType
from repro.experiments import ExperimentRunner, default_flood_spec

from benchmarks.conftest import run_once

ATTACKER_SIDE = ("B_gw1", "B_gw2", "B_gw3")


def run_escalation_sweep():
    rows = []
    for bad_gateways in range(4):
        non_cooperating = ("B_host",) + ATTACKER_SIDE[:bad_gateways]
        # Ttmp must cover traceback + the 3-way handshake (Section IV-B); the
        # paper's example uses 0.6 s.  A shorter Ttmp makes the victim's
        # gateway mistake handshake latency for non-cooperation.
        spec = default_flood_spec(
            attack_pps=800.0, duration=8.0,
            filter_timeout=30.0, temporary_filter_timeout=0.8,
            non_cooperating=non_cooperating,
            defense_params={"disconnection_enabled": True},
        ).with_overrides({"aitf.attacker_grace_period": 0.5})
        execution = ExperimentRunner().prepare(spec)
        result = execution.run()
        log = execution.backend.deployment.event_log
        filter_nodes = sorted({e.node for e in log.of_type(EventType.FILTER_INSTALLED)})
        disconnectors = sorted({e.node for e in log.of_type(EventType.DISCONNECTION)
                                if e.details.get("link_found")})
        rows.append((bad_gateways, result.defense_stats["escalation_rounds"],
                     result.effective_bandwidth_ratio, filter_nodes, disconnectors))
    return rows


@pytest.mark.benchmark(group="E6-escalation")
def test_bench_escalation_pushes_filtering_one_node_per_round(benchmark):
    rows = run_once(benchmark, run_escalation_sweep)
    table = ResultTable(
        "E6: escalation vs number of non-cooperating attacker-side gateways",
        ["bad gateways", "max round", "filters installed at", "disconnections by",
         "attack leak ratio"],
    )
    expected_filter_node = {0: "B_gw1", 1: "B_gw2", 2: "B_gw3"}
    for bad_gateways, rounds, leak, filter_nodes, disconnectors in rows:
        table.add_row(bad_gateways, max(1, rounds),
                      ",".join(filter_nodes) or "-",
                      ",".join(disconnectors) or "-",
                      f"{leak:.4f}")
    table.add_note("paper example: B_gw1 refuses -> B_gw2 filters in round 2, etc.; "
                   "all refuse -> G_gw3 disconnects from B_gw3")
    table.print()

    for bad_gateways, rounds, leak, filter_nodes, disconnectors in rows:
        if bad_gateways == 0:
            assert rounds == 0
            assert filter_nodes == ["B_gw1"]
        elif bad_gateways < 3:
            # Filtering lands on the closest cooperative attacker-side gateway,
            # after exactly one escalation round per refusing gateway.
            assert expected_filter_node[bad_gateways] in filter_nodes
            assert rounds == bad_gateways + 1
        else:
            # Worst case: the victim's side disconnects from the bad peer.
            assert "G_gw3" in disconnectors
        # In every case the victim stays protected.
        assert leak < 0.1


@pytest.mark.benchmark(group="E6-escalation")
def test_bench_each_round_involves_exactly_four_nodes(benchmark):
    """The Section V comparison point: an AITF round touches 4 nodes, not the
    whole path."""
    def run():
        execution = ExperimentRunner().prepare(default_flood_spec(
            attack_pps=600.0, duration=4.0,
            filter_timeout=30.0, temporary_filter_timeout=0.8))
        execution.run()
        return execution.backend.deployment.event_log

    log = run_once(benchmark, run)
    active_nodes = {e.node for e in log
                    if e.event_type in (EventType.REQUEST_SENT,
                                        EventType.REQUEST_RECEIVED,
                                        EventType.TEMP_FILTER_INSTALLED,
                                        EventType.FILTER_INSTALLED,
                                        EventType.FLOW_STOPPED)}
    table = ResultTable("E6b: nodes actively involved in a cooperative round-1 block",
                        ["nodes", "count"])
    table.add_row(",".join(sorted(active_nodes)), len(active_nodes))
    table.print()
    # victim, victim's gateway, attacker's gateway, attacker — and nobody else.
    assert active_nodes == {"G_host", "G_gw1", "B_gw1", "B_host"}
