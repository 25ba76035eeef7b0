"""Fault injection: link failures, incremental rerouting, churn survival.

Three layers are under test here:

* **Mechanics** — :class:`FaultSpec` validation/serialization, link
  up/down semantics (flush, drop, in-flight delivery, train truncation),
  ``max_span`` train splitting, and the incremental rerouter's equivalence
  with shortest paths on the post-fault graph.
* **Defense survival** — the committed failover scenario: a router crash
  mid-attack shifts the flood onto a never-filtered backup transit; the
  victim is measurably re-flooded until re-detection re-installs filters
  (stale shadows), or the warm shadow cache splices the new path without
  involving the victim at all (PATH_CHANGED).
* **Determinism** — identical fault schedules and bit-identical results
  across reruns, worker counts and the cluster queue; packet-vs-train
  agreement within the stated engine-equivalence tolerances.
"""

import dataclasses

import argparse

import networkx as nx
import pytest

from repro.cli import _base_spec, _parse_fault, build_parser
from repro.core.events import EventType
from repro.experiments import ExperimentRunner, ExperimentSpec, SweepRunner
from repro.experiments.spec import EngineSpec, FaultSpec, spec_hash
from repro.faults import FaultInjector
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.net.train import PacketTrain
from repro.sim.engine import Simulator
from repro.sim.process import TrainProcess
from repro.topology.failover import build_failover
from repro.topology.powerlaw import build_powerlaw_internet


# ----------------------------------------------------------------------
# spec helpers
# ----------------------------------------------------------------------
CRASH_SCHEDULE = ({"kind": "router_crash", "time": 4.0, "node": "T1"},)
FLAP_SCHEDULE = ({"kind": "link_down", "time": 4.0, "link": ["T1", "B_gw"]},
                 {"kind": "link_up", "time": 5.5, "link": ["T1", "B_gw"]})


def failover_spec(*, duration=6.0, rate_pps=3000.0, faults=(),
                  shadow_timeout=2.0, redetect_gap=0.5, **overrides):
    """The committed failover experiment (examples/specs/grids/failover.json)
    at test scale: flood at 0.5 s, optional fault schedule, churn collector."""
    aitf = {"filter_timeout": 60.0, "temporary_filter_timeout": 1.0}
    if shadow_timeout is not None:
        aitf["shadow_timeout"] = shadow_timeout
    defense_params = {"non_cooperating": ["B_gw"]}
    if redetect_gap is not None:
        defense_params["redetect_gap"] = redetect_gap
    data = {
        "schema": "experiment_spec/v1",
        "name": "failover-test",
        "seed": 0,
        "duration": duration,
        "detection_delay": 0.1,
        "topology": {"kind": "failover", "params": {}},
        "defense": {"backend": "aitf", "params": defense_params},
        "aitf": aitf,
        "collectors": [{"kind": "churn", "params": {}}],
        "workloads": [
            {"kind": "legitimate",
             "params": {"rate_pps": 400.0, "packet_size": 1000, "start": 0.0}},
            {"kind": "flood",
             "params": {"rate_pps": rate_pps, "packet_size": 1000, "start": 0.5}},
        ],
    }
    if faults:
        data["faults"] = [dict(f) for f in faults]
    spec = ExperimentSpec.from_dict(data)
    return spec.with_overrides(overrides) if overrides else spec


def run_spec(spec):
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    return execution, result


# ----------------------------------------------------------------------
# FaultSpec validation and serialization
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_link_fault_round_trips(self):
        fault = FaultSpec(kind="link_down", time=4.0, link=("T1", "B_gw"))
        assert fault.to_dict() == {"kind": "link_down", "time": 4.0,
                                   "link": ["T1", "B_gw"]}
        assert FaultSpec.from_dict(fault.to_dict()) == fault

    def test_windowed_node_fault_round_trips(self):
        fault = FaultSpec(kind="router_crash", window=(2.0, 6.0), node="T1")
        assert fault.to_dict() == {"kind": "router_crash",
                                   "window": [2.0, 6.0], "node": "T1"}
        assert FaultSpec.from_dict(fault.to_dict()) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", time=1.0, node="T1")

    @pytest.mark.parametrize("kwargs", [
        {},                                   # neither time nor window
        {"time": 1.0, "window": (0.0, 2.0)},  # both
        {"time": -0.5},                       # negative time
        {"window": (3.0, 2.0)},               # inverted window
        {"window": (1.0, 1.0)},               # empty window
    ])
    def test_bad_timing_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(kind="router_crash", node="T1", **kwargs)

    def test_target_shape_enforced_per_kind(self):
        with pytest.raises(ValueError, match="targets a 'link'"):
            FaultSpec(kind="link_down", time=1.0, node="T1")
        with pytest.raises(ValueError, match="targets a 'node'"):
            FaultSpec(kind="router_crash", time=1.0, link=("T1", "B_gw"))
        with pytest.raises(ValueError, match="two endpoints"):
            FaultSpec(kind="link_up", time=1.0, link=("T1", "V2", "B_gw"))

    def test_from_dict_rejects_unknown_keys_and_missing_kind(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultSpec.from_dict({"kind": "link_down", "time": 1.0,
                                 "link": ["a", "b"], "blast_radius": 3})
        with pytest.raises(ValueError, match="requires a 'kind'"):
            FaultSpec.from_dict({"time": 1.0, "node": "T1"})


class TestSpecSerializationWithFaults:
    def test_fault_free_spec_serializes_without_faults_key(self):
        # The golden-determinism guarantee: a spec with no faults must
        # produce the same bytes (and therefore the same content hash /
        # cache key) as before fault injection existed.
        spec = failover_spec()
        assert "faults" not in spec.to_dict()
        assert "max_span" not in spec.to_dict()["engine"]

    def test_spec_with_faults_round_trips(self):
        spec = failover_spec(faults=CRASH_SCHEDULE)
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.faults == spec.faults == (
            FaultSpec(kind="router_crash", time=4.0, node="T1"),)
        assert spec_hash(again) == spec_hash(spec)

    def test_faults_change_the_spec_hash(self):
        assert spec_hash(failover_spec()) != spec_hash(
            failover_spec(faults=CRASH_SCHEDULE))

    def test_faults_settable_by_override_path(self):
        # The CLI --fault flag and the committed grid's axis both feed the
        # schedule through the dotted-override machinery as plain dicts.
        spec = failover_spec().with_overrides({"faults": [dict(f) for f
                                                          in FLAP_SCHEDULE]})
        assert [f.kind for f in spec.faults] == ["link_down", "link_up"]


class TestEngineMaxSpan:
    def test_round_trip_and_default_omission(self):
        engine = EngineSpec(mode="train", max_train=64, max_span=0.25)
        assert engine.to_dict() == {"mode": "train", "max_train": 64,
                                    "max_span": 0.25}
        assert EngineSpec.from_dict(engine.to_dict()) == engine
        assert "max_span" not in EngineSpec().to_dict()

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_max_span_rejected(self, bad):
        with pytest.raises(ValueError, match="max_span"):
            EngineSpec(max_span=bad)
        with pytest.raises(ValueError, match="max_span"):
            TrainProcess(Simulator(), 0.1, lambda n: None, max_span=bad)

    def test_train_process_splits_at_max_span(self):
        # Binary-exact interval so the t += interval recurrence carries no
        # float drift: ticks at t, t+0.125, t+0.25, t+0.375 fit the 0.45 s
        # span bound, the next would start 0.5 past the head -> trains of 4.
        sim = Simulator()
        counts = []
        process = TrainProcess(sim, 0.125, lambda n: counts.append((sim.now, n)),
                               max_train=100, max_span=0.45, horizon=2.0)
        process.start()
        sim.run(until=3.0)
        assert [n for _, n in counts] == [4, 4, 4, 4, 1]
        assert sum(n for _, n in counts) == 17  # == per-tick emission count
        # Each train starts exactly where the previous one stopped.
        assert [t for t, _ in counts] == [0.0, 0.5, 1.0, 1.5, 2.0]


# ----------------------------------------------------------------------
# link up/down semantics
# ----------------------------------------------------------------------
class RecordingSink:
    def __init__(self, name):
        self.name = name
        self.packets = []
        self.trains = []

    def receive_packet(self, packet, link):
        self.packets.append((packet, link.sim.now))

    def receive_train(self, train, link):
        self.trains.append((train.count, link.sim.now))


def make_link(sim, bandwidth_bps=8e6, delay=0.01):
    from repro.net.link import Link
    a, b = RecordingSink("a"), RecordingSink("b")
    link = Link(sim, a, b, bandwidth_bps=bandwidth_bps, delay=delay)
    return link, a, b


SRC = "10.0.0.1"
DST = "10.0.1.1"


def data_packet(size=1000):
    from repro.net.address import IPAddress
    return Packet.data(IPAddress.parse(SRC), IPAddress.parse(DST), size=size)


class TestLinkUpDown:
    def test_down_drops_sends_and_up_restores(self):
        sim = Simulator()
        link, a, b = make_link(sim)
        assert link.set_down() is True
        assert link.set_down() is False   # idempotent
        assert not link.up
        assert link.send(data_packet(), a) is False
        sim.run(until=1.0)
        assert b.packets == []
        assert link.stats_toward(b).packets_dropped_down == 1
        assert link.set_up() is True
        assert link.set_up() is False
        assert link.send(data_packet(), a) is True
        sim.run(until=2.0)
        assert len(b.packets) == 1

    def test_down_flushes_queue_but_in_flight_packet_arrives(self):
        # 1000 B at 8 Mbps = 1 ms serialization + 10 ms propagation.  Two
        # packets sent back to back: when the link fails at t=0.5ms the
        # first is already on the wire (arrives at 11 ms), the second is
        # still queued behind the serializer and is flushed.
        sim = Simulator()
        link, a, b = make_link(sim)
        sim.fire_at(0.0, link.send, data_packet(), a)
        sim.fire_at(0.0, link.send, data_packet(), a)
        sim.fire_at(0.0005, link.set_down)
        sim.run(until=1.0)
        assert len(b.packets) == 1
        assert b.packets[0][1] == pytest.approx(0.011)
        assert link.stats_toward(b).packets_dropped_down >= 1

    def test_train_straddling_the_fault_is_truncated(self):
        # A 100-packet train on a 0.3 s-propagation pipe: the cut at 0.25 s
        # lands while the head is still in flight, so only the packets that
        # finished crossing before down_at + delay = 0.55 s arrive and the
        # stranded tail is accounted as dropped-down at delivery time.
        sim = Simulator()
        link, a, b = make_link(sim, bandwidth_bps=80e6, delay=0.3)
        link.enable_train_mode()
        train = PacketTrain(data_packet(), count=100, interval=0.01)
        sim.fire_at(0.0, link.send_train, train, a)
        sim.fire_at(0.25, link.set_down)
        sim.run(until=2.0)
        assert len(b.trains) == 1
        delivered = b.trains[0][0]
        assert 0 < delivered < 100
        stats = link.stats_toward(b)
        assert delivered + stats.packets_dropped_down == 100


# ----------------------------------------------------------------------
# incremental rerouting
# ----------------------------------------------------------------------
def installed_path_delay(router, host, hop_budget=64):
    """Total delay of the installed forwarding path router -> host, or None
    when some hop has no route (withdrawn after a fault)."""
    node, total = router, 0.0
    for _ in range(hop_budget):
        if node is host:
            return total
        route = node.routing.lookup(host.address)
        if route is None:
            return None
        total += route.link.delay
        node = route.link.other_end(node)
    raise AssertionError(f"forwarding loop from {router.name} to {host.name}")


def assert_routes_match_shortest_paths(topo, hosts):
    graph = topo.routing_graph
    for router in topo.border_routers():
        distances = nx.single_source_dijkstra_path_length(
            graph, router.name, weight="delay")
        for host in hosts:
            want = distances.get(host.name)
            got = installed_path_delay(router, host)
            if want is None:
                assert got is None, (router.name, host.name)
            else:
                assert got == pytest.approx(want), (router.name, host.name)


class TestIncrementalReroute:
    def test_failover_topology_prefers_primary_then_backup(self):
        failover = build_failover()
        topo = failover.topology
        assert failover.attack_path == ("B_gw", "T1", "V2", "G_gw")
        stats = {}
        assert topo.set_link_state(failover.primary_uplink, False)
        stats["down"] = topo.reroute_incremental(downed=[failover.primary_uplink])
        assert failover.attack_path == ("B_gw", "T2", "V2", "G_gw")
        assert_routes_match_shortest_paths(topo, topo.hosts())
        assert topo.set_link_state(failover.primary_uplink, True)
        stats["up"] = topo.reroute_incremental(restored=[failover.primary_uplink])
        assert failover.attack_path == ("B_gw", "T1", "V2", "G_gw")
        assert_routes_match_shortest_paths(topo, topo.hosts())
        for record in stats.values():
            assert record["anchors_recomputed"] > 0
            assert record["routes_installed"] > 0

    def test_unreachable_destinations_are_withdrawn(self):
        failover = build_failover()
        topo = failover.topology
        for link in (failover.primary_uplink, failover.backup_uplink):
            topo.set_link_state(link, False)
        topo.reroute_incremental(downed=[failover.primary_uplink,
                                         failover.backup_uplink])
        # B_net fell off the network: no stale route may forward into the
        # black hole, from any surviving router.
        for router in (failover.v2, failover.t1, failover.t2, failover.g_gw):
            assert router.routing.lookup(failover.b_host.address) is None
        assert_routes_match_shortest_paths(topo, topo.hosts())

    def test_path_query_across_a_faulted_away_cut_raises_no_path(self):
        failover = build_failover()
        topo = failover.topology
        b_host, g_host = failover.b_host.name, failover.g_host.name
        built = topo.path_between(b_host, g_host)
        assert topo.set_link_state(failover.primary_uplink, False)
        detour = topo.path_between(b_host, g_host)
        assert detour != built and "T2" in detour
        assert topo.set_link_state(failover.backup_uplink, False)
        # The links still exist (and the as-built shape still has them);
        # the live query must not route through them.
        assert topo.link_between("B_gw", "T1") is failover.primary_uplink
        for a, b in ((b_host, g_host), (g_host, b_host)):
            with pytest.raises(nx.NetworkXNoPath):
                topo.path_between(a, b)
        with pytest.raises(nx.NetworkXNoPath):
            topo.border_router_path(b_host, g_host)
        assert topo.set_link_state(failover.backup_uplink, True)
        assert topo.path_between(b_host, g_host) == detour

    def test_fleet_equivalence_and_cheapness(self):
        # On an AS-scale topology a single link fault must (a) reinstall
        # exactly the shortest paths of the reduced graph and (b) cost far
        # fewer Dijkstras than the one-per-router of a full build_routes().
        fleet = build_powerlaw_internet(autonomous_systems=30,
                                        hosts_per_leaf=2, seed=7)
        topo = fleet.topology
        routers = topo.border_routers()
        core_link = next(link for link in topo.links
                         if link.a in routers and link.b in routers)
        assert topo.set_link_state(core_link, False)
        stats = topo.reroute_incremental(downed=[core_link])
        assert 0 < stats["dijkstras"] <= len(routers) // 2
        assert_routes_match_shortest_paths(topo, topo.hosts())
        assert topo.set_link_state(core_link, True)
        up_stats = topo.reroute_incremental(restored=[core_link])
        assert up_stats["dijkstras"] <= len(routers) // 2 + 2
        assert_routes_match_shortest_paths(topo, topo.hosts())


class TestRouteChangeMidSimulation:
    def test_packets_follow_a_route_flipped_mid_run(self):
        # Regression for routing-memo staleness: the first packets warm the
        # per-router lookup memos along B_gw -> T1 -> V2 -> G_gw; installing
        # a more-specific route mid-run must invalidate them, so later
        # packets actually traverse T2.
        failover = build_failover()
        sim = failover.sim
        received = []
        failover.g_host.on_receive(
            lambda packet: received.append(tuple(packet.recorded_path)))

        def send_one():
            failover.b_host.send(Packet.data(
                failover.b_host.address, failover.g_host.address,
                size=100, created_at=sim.now))

        for when in (0.1, 0.2, 0.6, 0.7):
            sim.fire_at(when, send_one)

        def flip_route():
            backup = failover.topology.link_between(failover.b_gw, failover.t2)
            failover.b_gw.routing.add_route(
                f"{failover.g_host.address}/32", backup, metric=3)

        sim.fire_at(0.4, flip_route)
        sim.run(until=2.0)
        assert received[:2] == [("B_gw", "T1", "V2", "G_gw")] * 2
        assert received[2:] == [("B_gw", "T2", "V2", "G_gw")] * 2


# ----------------------------------------------------------------------
# the fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_no_faults_means_no_injector(self):
        failover = build_failover()
        assert FaultInjector.from_spec(failover_spec(),
                                       failover.topology) is None

    def test_unknown_targets_fail_at_wiring(self):
        failover = build_failover()
        bad_link = failover_spec(
            faults=({"kind": "link_down", "time": 1.0, "link": ["T1", "Nope"]},))
        with pytest.raises(ValueError, match="no such link"):
            FaultInjector.from_spec(bad_link, failover.topology)
        bad_node = failover_spec(
            faults=({"kind": "router_crash", "time": 1.0, "node": "Nope"},))
        with pytest.raises(ValueError, match="no such node"):
            FaultInjector.from_spec(bad_node, failover.topology)
        not_router = failover_spec(
            faults=({"kind": "router_crash", "time": 1.0, "node": "B_host"},))
        with pytest.raises(ValueError, match="not a border router"):
            FaultInjector.from_spec(not_router, failover.topology)

    def test_router_crash_wipes_filters_and_recover_restores_links(self):
        failover = build_failover()
        label = FlowLabel.between(failover.b_host.address,
                                  failover.g_host.address)
        failover.t1.filter_table.install(label, 60.0, reason="test")
        spec = failover_spec(faults=(
            {"kind": "router_crash", "time": 1.0, "node": "T1"},
            {"kind": "router_recover", "time": 2.0, "node": "T1"},
        ))
        injector = FaultInjector.from_spec(spec, failover.topology)
        injector.start()
        failover.sim.run(until=1.5)
        assert failover.t1.filter_table.entries() == []
        assert not failover.primary_uplink.up
        assert failover.attack_path == ("B_gw", "T2", "V2", "G_gw")
        crash = injector.timeline[0]
        assert crash["kind"] == "router_crash" and crash["target"] == "T1"
        assert crash["filters_lost"] == 1
        assert crash["links_changed"] == 2  # both of T1's backbone links
        failover.sim.run(until=2.5)
        assert failover.primary_uplink.up
        assert failover.attack_path == ("B_gw", "T1", "V2", "G_gw")
        # Filters are NOT resurrected: re-protection is the defense's job.
        assert failover.t1.filter_table.entries() == []

    def test_windowed_times_are_seed_derived_and_stable(self):
        spec = failover_spec(faults=(
            {"kind": "router_crash", "window": [2.0, 6.0], "node": "T1"},))
        times = []
        for _ in range(2):
            injector = FaultInjector.from_spec(spec, build_failover().topology)
            times.append(injector.events[0].time)
        assert times[0] == times[1]
        assert 2.0 <= times[0] < 6.0
        reseeded = FaultInjector.from_spec(
            failover_spec(faults=(
                {"kind": "router_crash", "window": [2.0, 6.0], "node": "T1"},),
                seed=1),
            build_failover().topology)
        assert reseeded.events[0].time != times[0]


# ----------------------------------------------------------------------
# the failover scenario: defense survival under churn
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def nofault_run():
    return run_spec(failover_spec())


@pytest.fixture(scope="module")
def crash_run():
    """Stale shadows (shadow_timeout 2 s < crash at 4 s): the victim's
    detector must re-detect the reappearing flood via redetect_gap."""
    return run_spec(failover_spec(faults=CRASH_SCHEDULE))


@pytest.fixture(scope="module")
def flap_run():
    """Warm shadows (timeout defaults to T = 60 s): the victim gateway's
    shadow cache catches the rerouted flood itself and splices the new
    attack path (PATH_CHANGED) without a victim round trip."""
    return run_spec(failover_spec(faults=FLAP_SCHEDULE, shadow_timeout=None))


class TestFailoverScenario:
    def test_baseline_recovers_and_reports_no_churn(self, nofault_run):
        _, result = nofault_run
        churn = result.collector_stats["churn"]
        assert churn["fault_count"] == 0
        assert churn["total_reflood_seconds"] == 0.0
        assert churn["max_goodput_dip_bps"] == 0.0
        assert churn["path_changes"] == 0
        assert result.time_to_first_block is not None
        assert result.legit_goodput_bps > 3e6  # tail circuit mostly clean

    def test_crash_refloods_victim_until_filters_reestablish(self, crash_run,
                                                             nofault_run):
        execution, result = crash_run
        churn = result.collector_stats["churn"]
        assert churn["fault_count"] == 1
        event = churn["events"][0]
        # The re-flood window is real, Td-bounded and bounded by recovery.
        assert 0.1 <= event["reflood_seconds"] <= 1.0
        assert event["goodput_dip_bps"] > 1e6
        assert event["recovery_seconds"] is not None
        assert event["recovery_seconds"] <= 1.0
        assert event["filters_reestablished"] >= 2
        # The crash cost T1 its filter and the re-flood leaked real traffic.
        assert churn["timeline"][0]["filters_lost"] >= 1
        assert result.attack_received_bps > nofault_run[1].attack_received_bps
        # Re-detection (not shadow splicing) drove the recovery.
        assert execution.backend.detector.redetections >= 1
        log = execution.backend.deployment.event_log
        t2_filters = [e for e in log.of_type(EventType.FILTER_INSTALLED)
                      if e.node == "T2" and e.time > 4.0]
        assert t2_filters, "no full filter ever reached the backup transit"

    def test_warm_shadow_splices_path_without_revisiting_victim(self, flap_run):
        execution, result = flap_run
        churn = result.collector_stats["churn"]
        log = execution.backend.deployment.event_log
        assert log.count(EventType.PATH_CHANGED) >= 1
        assert churn["path_changes"] == log.count(EventType.PATH_CHANGED)
        # Shadow-driven recovery beats the victim's Td + request round trip:
        # the re-flood never builds a measurable window at the tail circuit.
        assert churn["total_reflood_seconds"] <= 0.2
        t2_filters = [e for e in log.of_type(EventType.FILTER_INSTALLED)
                      if e.node == "T2" and e.time > 4.0]
        assert t2_filters, "spliced path never reached the backup transit"

    @pytest.mark.parametrize("schedule", [
        ({"kind": "link_down", "time": 0.55, "link": ["B_gw", "B_host"]},
         {"kind": "link_up", "time": 1.0, "link": ["B_gw", "B_host"]}),
        ({"kind": "router_crash", "time": 0.55, "node": "B_gw"},
         {"kind": "router_recover", "time": 1.0, "node": "B_gw"}),
    ], ids=["link-flap", "router-crash"])
    def test_dropped_down_over_the_downed_links_equals_the_full_walk(
            self, schedule):
        """``_collect`` sums ``packets_dropped_down`` over the links the
        injector ever took down, not over every link of the topology.  The
        attacker's access link has no detour, so the flood is sent into it
        while it is down."""
        execution, result = run_spec(failover_spec(duration=1.5,
                                                   faults=schedule))
        topo = execution.handle.topology
        downed = execution.fault_injector.downed_links
        expected = ({topo.link_between("B_gw", "B_host")}
                    if "link" in schedule[0] else set(topo.nodes["B_gw"].links))
        assert downed == expected and len(downed) < len(topo.links)
        assert result.packets_dropped_down == sum(
            link.stats_toward(end).packets_dropped_down
            for link in topo.links for end in (link.a, link.b)) > 0

    def test_churn_metrics_serialize(self, crash_run):
        _, result = crash_run
        doc = result.to_dict()
        churn = doc["collector_stats"]["churn"]
        assert churn["kind"] == "churn"
        assert churn["total_reflood_seconds"] == pytest.approx(
            sum(e["reflood_seconds"] for e in churn["events"]))


# ----------------------------------------------------------------------
# determinism under churn
# ----------------------------------------------------------------------
class TestChurnDeterminism:
    def test_identical_rerun_is_bit_identical(self, crash_run):
        _, first = crash_run
        _, second = run_spec(failover_spec(faults=CRASH_SCHEDULE))
        assert dataclasses.asdict(second) == dataclasses.asdict(first)

    def test_train_mode_agrees_within_stated_tolerances(self, crash_run):
        packet_exec, packet_result = crash_run
        spec = failover_spec(faults=CRASH_SCHEDULE).with_overrides(
            {"engine.mode": "train", "engine.max_train": 32})
        train_exec, train_result = run_spec(spec)
        agg_packet = (packet_result.attack_received_bps
                      + packet_result.legit_goodput_bps)
        agg_train = (train_result.attack_received_bps
                     + train_result.legit_goodput_bps)
        assert agg_train == pytest.approx(agg_packet, rel=0.05)
        for attr in ("attack_received_bps", "legit_goodput_bps"):
            want = getattr(packet_result, attr)
            got = getattr(train_result, attr)
            assert want > 0 and 0.5 <= got / want <= 2.0, (attr, want, got)
        # The defense survives churn in train mode too.
        train_churn = train_result.collector_stats["churn"]
        assert train_churn["fault_count"] == 1
        assert train_churn["events"][0]["filters_reestablished"] >= 2

    def test_sweep_bit_identical_serial_parallel_cluster(self, tmp_path):
        from repro.cluster import SweepCoordinator

        base = failover_spec(duration=3.0)
        grid = {"faults": [[], [{"kind": "router_crash", "time": 2.0,
                                 "node": "T1"}]]}
        serial = SweepRunner(workers=1).run_grid(base, grid)
        parallel = SweepRunner(workers=2).run_grid(base, grid)
        clustered = SweepCoordinator(str(tmp_path)).run_grid(base, grid)
        assert parallel.to_json() == serial.to_json()
        assert clustered.to_json() == serial.to_json()
        # The fault axis made it into the cells and changed the results.
        cells = serial.cells
        assert cells[0]["overrides"]["faults"] == []
        assert cells[1]["overrides"]["faults"] != []


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestFaultCLI:
    def test_parse_fault_link_and_node_forms(self):
        assert _parse_fault("link_down@4.0:T1-B_gw") == {
            "kind": "link_down", "time": 4.0, "link": ["T1", "B_gw"]}
        assert _parse_fault("router_crash@2..6:T1") == {
            "kind": "router_crash", "window": [2.0, 6.0], "node": "T1"}

    @pytest.mark.parametrize("text", [
        "link_down@4.0",          # no target
        "link_down:T1-B_gw",      # no time
        "@4.0:T1",                # no kind
        "router_crash@soon:T1",   # unparseable time
    ])
    def test_parse_fault_rejects_malformed_input(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault(text)

    def test_repeatable_fault_flag_lands_in_the_spec(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--topology", "failover", "--duration", "6",
            "--fault", "link_down@4.0:T1-B_gw",
            "--fault", "link_up@5.5:T1-B_gw",
        ])
        spec = _base_spec(args)
        assert spec.faults == (
            FaultSpec(kind="link_down", time=4.0, link=("T1", "B_gw")),
            FaultSpec(kind="link_up", time=5.5, link=("T1", "B_gw")),
        )
