"""Tiered AS hierarchies: builder invariants, valley-free paths, lazy
routing shards, fault rerouting, partial-deployment experiments, and the
``repro topo`` CLI."""

import json

import networkx as nx
import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.routing_policy import PEER
from repro.topology.hierarchy import STUB, TIER1, TIER2, build_hierarchy_internet


def base_spec_dict(locus="all", *, autonomous_systems=300, duration=6.0,
                   mode="packet", count=60):
    return {
        "schema": "experiment_spec/v1",
        "name": f"hier-{locus}-{mode}",
        "seed": 11,
        "duration": duration,
        "detection_delay": 0.1,
        "engine": {"mode": mode},
        "aitf": {"filter_timeout": 60.0, "temporary_filter_timeout": 1.0},
        "defense": {"backend": "aitf",
                    "params": {"deployment": locus,
                               "non_cooperating_attackers": True}},
        "topology": {"kind": "hierarchy",
                     "params": {"autonomous_systems": autonomous_systems,
                                "host_stubs": 8, "hosts_per_stub": 10,
                                "stub_uplink_bandwidth": 20e6, "seed": 7}},
        "workloads": [
            {"kind": "legitimate",
             "params": {"packet_size": 1000, "rate_pps": 150.0,
                        "start": 0.0, "poisson": True}},
            {"kind": "zombies",
             "params": {"count": count, "packet_size": 1000,
                        "rate_pps": 200.0, "start": 0.5}},
        ],
    }


#: Legitimate delivery ratio with every AS deployed over the victim-stub
#: locus, on the 300-AS, 6 s packet-engine cell above at seed 11 (the
#: committed partial-deployment grid's quick cell; ``tools/smoke.py``
#: checks the same ratio on that grid's run, whose cells take per-cell
#: seeds: 4.99 there).
LOCUS_SEPARATION = 5.39


def train_spec(autonomous_systems, **overrides):
    """A one-second train-mode cell on a hierarchy of the given size.

    Its build leaves far more young objects (2,000 ASes: about 117 k) than
    the 7,000 from which ``BuildCollector`` promotes a build to the
    permanent generation."""
    doc = base_spec_dict(autonomous_systems=autonomous_systems, duration=1.0,
                         mode="train", count=40)
    doc.update(overrides)
    return ExperimentSpec.from_dict(doc)


class TestBuilder:
    def test_tier_structure(self):
        net = build_hierarchy_internet(autonomous_systems=200, seed=3)
        counts = net.tier_counts()
        assert counts["tier1"] >= 4
        assert counts["tier2"] >= 2 * counts["tier1"]
        assert sum(counts.values()) == 200
        assert len(net.host_stub_routers) == 8
        assert len(net.hosts) == 16

    def test_tier1_is_a_peering_clique(self):
        net = build_hierarchy_internet(autonomous_systems=100, seed=5)
        rels = net.relationships
        names = [r.name for r in net.tier1]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert rels.relationship(a, b) == "peer"

    def test_transit_relationships_point_up(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=9)
        rels = net.relationships
        for router in net.tier2:
            providers = rels.providers_of(router.name)
            assert 1 <= len(providers) <= 2
            assert all(net.tier_of[p] == TIER1 for p in providers)
        for router in net.stubs:
            providers = rels.providers_of(router.name)
            assert 1 <= len(providers) <= 2
            assert all(net.tier_of[p] == TIER2 for p in providers)

    def test_same_seed_is_identical_different_seed_is_not(self):
        a = build_hierarchy_internet(autonomous_systems=120, seed=4)
        b = build_hierarchy_internet(autonomous_systems=120, seed=4)
        c = build_hierarchy_internet(autonomous_systems=120, seed=5)
        def edges(net):
            return sorted((link.a.name, link.b.name)
                          for link in net.topology.links)
        assert edges(a) == edges(b)
        assert edges(a) != edges(c)
        assert [r.name for r in a.host_stub_routers] == \
            [r.name for r in b.host_stub_routers]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_hierarchy_internet(autonomous_systems=8)
        with pytest.raises(ValueError):
            build_hierarchy_internet(autonomous_systems=50, host_stubs=1)
        with pytest.raises(ValueError):
            build_hierarchy_internet(autonomous_systems=20, host_stubs=19)


class TestPolicyPaths:
    def test_host_pair_paths_are_valley_free_both_ways(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=7,
                                       host_stubs=6, hosts_per_stub=1)
        topo, rels = net.topology, net.relationships
        hosts = net.hosts
        for a in hosts[:3]:
            for b in hosts[3:]:
                for src, dst in ((a, b), (b, a)):
                    path = topo.path_between(src.name, dst.name)
                    assert path[0] == src.name and path[-1] == dst.name
                    assert rels.validate_path(path[1:-1]), path

    def test_paths_may_differ_from_delay_shortest(self):
        """Policy paths ignore delay: a peer route wins over a shorter
        provider route somewhere in a big enough graph."""
        net = build_hierarchy_internet(autonomous_systems=200, seed=7)
        policy = net.policy
        anchor = net.host_stub_routers[0].name
        routes = policy.materialize(anchor)
        assert any(r.rank == PEER for r in routes.values())

    def test_lazy_materialization(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=7)
        policy = net.policy
        assert policy.materialized_anchors == ()
        victim_stub = net.host_stub_routers[0]
        victim = net.hosts_by_stub[victim_stub.name][0]
        remote = net.host_stub_routers[-1]
        route = remote.routing.lookup(victim.address)
        assert route is not None
        assert policy.materialized_anchors == (victim_stub.name,)
        # Second lookup is a pure memo hit (no new anchors).
        remote.routing.lookup(victim.address)
        assert policy.stats["anchors_materialized"] == 1


class TestFaultRerouting:
    def test_link_down_triggers_policy_aware_rerouting(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=7,
                                       host_stubs=6, hosts_per_stub=1)
        topo, rels = net.topology, net.relationships
        # A multihomed source stub guarantees an alternate uplink exists.
        src_stub = next(r for r in net.host_stub_routers
                        if len(rels.providers_of(r.name)) == 2)
        src = net.hosts_by_stub[src_stub.name][0]
        dst = next(h for h in net.hosts
                   if net.stub_of(h) is not src_stub)
        before = topo.path_between(src.name, dst.name)
        # Fail the uplink the live path actually uses.
        a, b = before[1], before[2]
        link = topo.link_between(a, b)
        assert topo.set_link_state(link, up=False)
        stats = topo.reroute_incremental(downed=[link])
        assert stats["anchors_recomputed"] >= 1
        after = topo.path_between(src.name, dst.name)
        assert (a, b) not in zip(after, after[1:])
        assert net.relationships.validate_path(after[1:-1]), after
        # Restore: the original (preferred) route comes back.
        assert topo.set_link_state(link, up=True)
        stats = topo.reroute_incremental(restored=[link])
        assert stats["anchors_recomputed"] >= 1
        assert topo.path_between(src.name, dst.name) == before

    def test_downed_access_link_raises_no_path(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=7)
        topo = net.topology
        victim_stub = net.host_stub_routers[0]
        victim = net.hosts_by_stub[victim_stub.name][0]
        other = net.hosts[-1]
        link = topo.link_between(victim.name, victim_stub.name)
        topo.set_link_state(link, up=False)
        topo.reroute_incremental(downed=[link])
        with pytest.raises(nx.NetworkXNoPath):
            topo.path_between(other.name, victim.name)

    def test_unrelated_link_down_recomputes_nothing(self):
        net = build_hierarchy_internet(autonomous_systems=150, seed=7)
        anchor = net.host_stub_routers[0].name
        routes = net.policy.materialize(anchor)
        topo, rels = net.topology, net.relationships
        # Down the *standby* uplink of a multihomed stub: no installed
        # route crosses it, so neither end forwards over it: no re-solve.
        stub = next(r for r in net.stubs
                    if len(rels.providers_of(r.name)) == 2
                    and r.name != anchor)
        standby = next(p for p in rels.providers_of(stub.name)
                       if p != routes[stub.name].next_hop)
        link = topo.link_between(stub.name, standby)
        topo.set_link_state(link, up=False)
        stats = topo.reroute_incremental(downed=[link])
        assert stats["anchors_recomputed"] == 0


class TestPartialDeploymentExperiments:
    def run(self, locus, **kwargs):
        spec = ExperimentSpec.from_dict(base_spec_dict(locus, **kwargs))
        return ExperimentRunner().run(spec)

    def test_deployment_loci_select_the_right_gateways(self):
        for locus, expected in (("tier1", TIER1), ("tier2", TIER2),
                                ("stubs", STUB)):
            spec = ExperimentSpec.from_dict(base_spec_dict(locus, duration=0.1))
            execution = ExperimentRunner().prepare(spec)
            tier_of = execution.handle.raw.tier_of
            victim_gw = execution.handle.victim_gateway.name
            deployed = set(execution.backend.deployment.gateway_agents)
            assert victim_gw in deployed
            assert all(tier_of[name] == expected
                       for name in deployed - {victim_gw})

    def test_random_locus_is_seeded_and_sized(self):
        spec = ExperimentSpec.from_dict(base_spec_dict("random-10",
                                                       duration=0.1))
        first = ExperimentRunner().prepare(spec)
        second = ExperimentRunner().prepare(spec)
        deployed = set(first.backend.deployment.gateway_agents)
        assert deployed == set(second.backend.deployment.gateway_agents)
        # ~10% of 300 routers (+ victim gateway).
        assert 25 <= len(deployed) <= 35

    def test_unknown_locus_rejected(self):
        with pytest.raises(ValueError, match="deployment"):
            ExperimentRunner().prepare(
                ExperimentSpec.from_dict(base_spec_dict("tier9",
                                                        duration=0.1)))

    def test_tier_locus_needs_a_tiered_topology(self):
        spec_dict = base_spec_dict("tier1", duration=0.1)
        spec_dict["topology"] = {"kind": "figure1", "params": {}}
        spec_dict["workloads"][1] = {"kind": "flood",
                                     "params": {"rate_pps": 100.0}}
        with pytest.raises(ValueError, match="tier"):
            ExperimentRunner().prepare(ExperimentSpec.from_dict(spec_dict))

    def test_upstream_deployment_beats_victim_side_only(self):
        """The paper's partial-deployment result: filters upstream of the
        flooded tail circuit recover goodput; filters only at the victim's
        own gateway (downstream of the congestion) do not.  On the packet
        engine the separation is measured, not just its sign: full
        deployment delivers 5.39x the victim-stub share (0.935 / 0.173),
        held to within 5 %."""
        full = self.run("all")
        victim_only = self.run("victim-stub")
        assert full.legit_delivery_ratio > 0.8
        assert victim_only.legit_delivery_ratio < 0.5
        assert full.legit_goodput_bps > 2 * victim_only.legit_goodput_bps
        assert (full.legit_delivery_ratio / victim_only.legit_delivery_ratio
                == pytest.approx(LOCUS_SEPARATION, rel=0.05))
        assert full.defense_stats["deployed_gateways"] == 300
        assert victim_only.defense_stats["deployed_gateways"] == 1

    def test_train_mode_agrees_on_the_separation(self):
        full = self.run("tier2", mode="train")
        victim_only = self.run("victim-stub", mode="train")
        assert full.legit_delivery_ratio > 0.7
        assert victim_only.legit_delivery_ratio < 0.5

    def test_large_hierarchy_quick_cell_in_train_mode(self):
        """A 2000-AS cell stays fast end to end thanks to lazy shards."""
        result = self.run("tier2", autonomous_systems=2000, duration=4.0,
                          mode="train", count=40)
        assert result.legit_delivery_ratio > 0.5
        assert result.defense_stats["deployment_locus"] == "tier2"


class TestTopoCLI:
    def test_hierarchy_summary(self, capsys):
        from repro.cli import main
        code = main(["topo", "--name", "hierarchy",
                     "--set", "autonomous_systems=100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ASes: tier1" in out
        assert "links: customer_provider" in out
        assert "routing entries (victim anchor)" in out

    def test_json_output(self, capsys):
        from repro.cli import main
        code = main(["--json", "topo", "--name", "hierarchy",
                     "--set", "autonomous_systems=100", "--seed", "9"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["seed"] == 9
        assert doc["tiers"]["tier1"] >= 4
        assert doc["routing_entries"] > 0
        assert doc["relationship_links"]["peer_peer"] > 0

    def test_non_hierarchy_topologies_still_work(self, capsys):
        from repro.cli import main
        code = main(["topo", "--name", "figure1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "border routers" in out

    def test_unknown_name_rejected(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topo", "--name", "nope"])
