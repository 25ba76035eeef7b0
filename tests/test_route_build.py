"""``Topology.build_routes`` against the sweep it replaced.

``build_routes`` runs its per-router Dijkstras on the leaf-folded router
projection (``repro.topology.dynamic.fold_leaves`` / ``project_routers``).
The full-graph per-router sweep it used to run is kept here, and only here,
as the oracle: same ``(prefix, link, metric)`` rows on every router, in the
same ``routes()`` order — so next hops, tie-breaks and installation order
are all pinned, on the stock builders and on a hand-built topology made of
the cases the fold must leave alone.
"""

import networkx as nx
import pytest

from repro.net.address import Prefix
from repro.router.nodes import Host
from repro.router.routing import RoutingTable
from repro.topology.base import Topology
from repro.topology.dynamic import fold_leaves
from repro.topology.figure1 import build_figure1
from repro.topology.powerlaw import build_powerlaw_internet
from repro.topology.tree import build_dumbbell, build_provider_tree


def rows(table):
    return [(route.prefix, route.link, route.metric) for route in table.routes()]


def reference_rows(topo):
    """The old sweep: one Dijkstra per router over the *full* graph, one
    ``link_between`` and ``add_route`` per destination prefix."""
    destinations = topo._destination_prefixes()
    expected = {}
    for node in topo.nodes.values():
        if isinstance(node, Host):
            continue
        table = RoutingTable(node.name)
        paths = nx.single_source_dijkstra_path(topo.graph, node.name,
                                               weight="delay")
        for target, prefixes in destinations.items():
            path = paths.get(target)
            if target == node.name or path is None or len(path) < 2:
                continue
            link = topo.link_between(node, path[1])
            for prefix in prefixes:
                table.add_route(prefix, link, metric=len(path) - 1)
        expected[node.name] = rows(table)
    return expected


def assert_matches_reference(topo):
    expected = reference_rows(topo)
    assert expected and any(expected.values())
    for name, want in expected.items():
        assert rows(topo.nodes[name].routing) == want, name
    for host in topo.hosts():
        if host.links:
            assert host.routing.default_route.link is host.links[0]


def awkward_topology():
    """Equal-delay square of routers (every path a tie) plus everything the
    fold must not fold: a dual-homed host that is the *shortest* way across,
    a host reachable only through another host, and a router without an
    address that still serves a prefix and a host."""
    topo = Topology()
    for name in ("r1", "r2", "r3", "r4"):
        topo.add_border_router(name, name)
    for a, b in (("r1", "r2"), ("r1", "r3"), ("r2", "r4"), ("r3", "r4")):
        topo.connect(a, b, delay=0.010)
    for name in ("r1", "r2", "r3", "r4"):
        topo.connect(topo.add_host(f"{name}_h", name), name)

    dual = topo.add_host("dual", "r1")
    topo.connect(dual, "r1", delay=0.001)
    topo.connect(dual, "r4", delay=0.001)

    relay = topo.add_host("relay", "r2")
    topo.connect(relay, "r2")
    topo.connect(topo.add_host("behind", "r2"), relay)

    bare = topo.add_border_router(
        "bare", "bare", local_prefix=topo.allocate_network_prefix(24))
    bare.addresses.clear()
    topo.connect(bare, "r3", delay=0.010)
    topo.connect(topo.add_host("bare_h", "bare"), bare)

    topo.add_border_router("island", "island")
    topo.build_routes()
    return topo


class TestAgainstTheFullGraphSweep:
    def test_figure1(self):
        assert_matches_reference(build_figure1().topology)

    def test_provider_tree_and_dumbbell(self):
        assert_matches_reference(build_provider_tree().topology)
        assert_matches_reference(build_dumbbell().topology)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
    def test_powerlaw_fleet(self, seed):
        fleet = build_powerlaw_internet(autonomous_systems=40,
                                        hosts_per_leaf=3, seed=seed)
        assert_matches_reference(fleet.topology)

    def test_what_the_fold_must_leave_alone(self):
        topo = awkward_topology()
        assert fold_leaves(topo) == {
            "r1_h": "r1", "r2_h": "r2", "r3_h": "r3", "r4_h": "r4",
            "bare_h": "bare"}
        assert_matches_reference(topo)
        # The cases are live, not decorative: the dual-homed host carries
        # r1 <-> r4, the host behind a host is reached through it, and the
        # address-less router's prefix and host are routed to.
        r1 = topo.nodes["r1"].routing
        assert r1.lookup(topo.nodes["r4"].address).link.other_end(
            topo.nodes["r1"]).name == "dual"
        assert topo.nodes["r4"].routing.lookup(
            topo.nodes["behind"].address).metric == 3  # r2, relay, behind
        bare = topo.nodes["bare"]
        assert r1.route_for(bare.local_prefixes[0]).metric == 2
        assert r1.lookup(topo.nodes["bare_h"].address).metric == 3
        assert r1.route_for(Prefix(topo.nodes["island"].address, 32)) is None

    def test_rebuild_after_growth_installs_the_new_rows_only(self, monkeypatch):
        topo = awkward_topology()
        routers = [node for name, node in topo.nodes.items()
                   if not isinstance(node, Host) and name != "island"]
        before = {node.name: rows(node.routing) for node in routers}
        probe = topo.nodes["r2_h"].address
        warm = {node.name: node.routing.next_link(probe) for node in routers}

        changed = {}
        install_rows = RoutingTable.install_rows

        def counted(self, keys, records):
            changed[self.name] = install_rows(self, keys, records)
            return changed[self.name]

        monkeypatch.setattr(RoutingTable, "install_rows", counted)
        topo.connect(topo.add_host("late", "r4"), "r4")
        topo.build_routes()
        assert_matches_reference(topo)
        late = Prefix(topo.nodes["late"].address, 32)
        for node in routers:
            assert changed[node.name] == 1, node.name
            fresh = [row for row in rows(node.routing)
                     if row not in before[node.name]]
            assert [prefix for prefix, _, _ in fresh] == [late], node.name
        assert changed["island"] == 0

        # One new /32 drops one address from a memo: the answers looked up
        # before the rebuild are still served without running a match.
        matched = []
        match = RoutingTable._match
        monkeypatch.setattr(
            RoutingTable, "_match",
            lambda self, value: matched.append(value) or match(self, value))
        assert {node.name: node.routing.next_link(probe)
                for node in routers} == warm
        assert matched == []

        # A build over an unchanged topology changes nothing anywhere.
        changed.clear()
        topo.build_routes()
        assert set(changed) == {node.name for node in routers} | {"island"}
        assert not any(changed.values())
        assert {node.name: node.routing.next_link(probe)
                for node in routers} == warm
        assert matched == []
