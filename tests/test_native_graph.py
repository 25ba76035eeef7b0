"""The topology's own graph against networkx, which it replaced on the run
path and which stays as the oracle.

* the native Dijkstra picks networkx's path among equal-cost alternatives,
  through a random link down/up history (a restored edge lands *last* in its
  endpoints' neighbour order, and the ``routing_graph`` view says so);
* the native Barabási–Albert draw is networkx's, edge for edge;
* a run that succeeds never imports networkx — reading ``topology.graph``
  does;
* routing allocates per (router, next hop), not per row, through a build
  and a lookup of every destination on every router.
"""

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.router.nodes import Host
from repro.topology.adjacency import shortest_path_tree
from repro.topology.base import Topology
from repro.topology.powerlaw import barabasi_albert_edges, build_powerlaw_internet

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Dijkstra and the nx view
# ----------------------------------------------------------------------
@st.composite
def tied_topologies(draw):
    """A connected router graph whose delays come from {10, 20} ms, so
    equal-cost alternatives are the norm, plus a down/up history."""
    size = draw(st.integers(min_value=3, max_value=9))
    names = [f"r{index}" for index in range(size)]
    edges = [(names[draw(st.integers(0, index - 1))], names[index])
             for index in range(1, size)]                      # spanning tree
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)):
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
    edges = draw(st.permutations(edges))
    delays = draw(st.lists(st.sampled_from([0.010, 0.020]),
                           min_size=len(edges), max_size=len(edges)))
    flips = draw(st.lists(st.integers(0, len(edges) - 1), max_size=10))
    return names, list(zip(edges, delays)), flips


def assert_view_is_the_adjacency(adjacency, view):
    assert list(view.nodes) == list(adjacency)
    for name, neighbors in adjacency.items():
        assert list(view.adj[name]) == list(neighbors), name
        for other, link in neighbors.items():
            data = view.adj[name][other]
            assert data is view.adj[other][name]
            assert data == {"link": link, "delay": link.delay}


def assert_paths_are_networkx_paths(topo):
    adjacency = topo.routing_adjacency
    view = topo.routing_graph
    assert_view_is_the_adjacency(adjacency, view)
    for source in adjacency:
        want = nx.single_source_dijkstra_path(view, source, weight="delay")
        dist, pred = shortest_path_tree(adjacency, source)
        assert list(dist) == list(want)  # same settling order
        assert pred == {target: path[-2] for target, path in want.items()
                        if target != source}
        for target, path in want.items():
            assert topo.path_between(source, target) == path
        for target in set(adjacency) - set(want):
            with pytest.raises(nx.NetworkXNoPath):
                topo.path_between(source, target)


class TestNativeDijkstraAgainstNetworkx:
    @given(tied_topologies())
    @settings(max_examples=120, deadline=None)
    def test_same_paths_through_a_down_up_history(self, drawn):
        names, edges, flips = drawn
        topo = Topology()
        for name in names:
            topo.add_border_router(name, name)
        links = [topo.connect(a, b, delay=delay) for (a, b), delay in edges]
        assert topo.routing_graph is topo.graph
        assert_paths_are_networkx_paths(topo)
        for index in flips:
            link = links[index]
            assert topo.set_link_state(link, not link.up)
            assert_paths_are_networkx_paths(topo)
        # the as-built shape never moved
        assert_view_is_the_adjacency(topo.adjacency, topo.graph)

    def test_a_restored_edge_is_its_endpoints_last_neighbour(self):
        # a-b-d and a-c-d tie; whichever of a's edges was (re)inserted
        # first wins, so flapping a-b hands the route to c.
        topo = Topology()
        for name in "abcd":
            topo.add_border_router(name, name)
        ab = topo.connect("a", "b", delay=0.010)
        topo.connect("a", "c", delay=0.010)
        topo.connect("b", "d", delay=0.010)
        topo.connect("c", "d", delay=0.010)
        assert topo.path_between("a", "d") == ["a", "b", "d"]
        topo.set_link_state(ab, False)
        assert topo.path_between("a", "d") == ["a", "c", "d"]
        topo.set_link_state(ab, True)
        assert list(topo.routing_adjacency["a"]) == ["c", "b"]
        assert list(topo.routing_graph.adj["a"]) == ["c", "b"]
        assert list(topo.graph.adj["a"]) == ["b", "c"]
        assert topo.path_between("a", "d") == ["a", "c", "d"] == \
            nx.dijkstra_path(topo.routing_graph, "a", "d", weight="delay")

    def test_the_view_is_detached_and_rebuilt_after_a_change(self):
        topo = Topology()
        for name in "abc":
            topo.add_border_router(name, name)
        topo.connect("a", "b")
        view = topo.graph
        assert topo.graph is view
        view.remove_edge("a", "b")  # what bench/gen_workloads.py does
        assert topo.path_between("a", "b") == ["a", "b"]
        topo.connect("b", "c")
        assert topo.graph is not view
        assert sorted(topo.graph.edges) == [("a", "b"), ("b", "c")]


# ----------------------------------------------------------------------
# Barabási–Albert
# ----------------------------------------------------------------------
class TestNativeBarabasiAlbert:
    @pytest.mark.parametrize("n, m", [(n, m) for n in (3, 10, 60, 200)
                                      for m in (1, 2, 3) if m < n])
    def test_edge_list_is_networkx_edge_list(self, n, m):
        for seed in (1, 7, 11, 29, 12345):
            want = nx.barabasi_albert_graph(n, m, seed=seed)
            assert barabasi_albert_edges(n, m, seed) == list(want.edges), seed
            assert list(want.nodes) == list(range(n))

    @pytest.mark.parametrize("n, m", [(5, 0), (5, -1), (3, 3), (3, 4)])
    def test_rejects_what_networkx_rejects(self, n, m):
        with pytest.raises(nx.NetworkXError):
            nx.barabasi_albert_graph(n, m, seed=1)
        with pytest.raises(ValueError):
            barabasi_albert_edges(n, m, 1)


# ----------------------------------------------------------------------
# networkx stays off the run path
# ----------------------------------------------------------------------
def test_successful_runs_do_not_import_networkx():
    script = textwrap.dedent("""
        import sys
        from repro.experiments import ExperimentRunner, default_flood_spec

        flood = default_flood_spec(duration=1.0)
        fleet = flood.with_overrides({
            "topology.kind": "powerlaw",
            "topology.params": {"autonomous_systems": 20},
            "defense.params": {"non_cooperating_attackers": True},
            "engine.mode": "train",
            "faults": [
                {"kind": "link_down", "time": 0.3, "link": ["as0", "as1"]},
                {"kind": "link_up", "time": 0.6, "link": ["as0", "as1"]}],
        })
        hierarchy = flood.with_overrides({
            "topology.kind": "hierarchy",
            "topology.params": {"autonomous_systems": 40, "host_stubs": 4},
            "defense.params": {"non_cooperating_attackers": True},
            "engine.mode": "train",
        })
        runner = ExperimentRunner()
        for spec in (flood, fleet, hierarchy):
            result = runner.run(spec)
            assert result.legit_goodput_bps > 0, spec.name
        assert "networkx" not in sys.modules, "a run imported networkx"

        topology = runner.prepare(fleet).handle.topology
        assert "networkx" not in sys.modules
        assert topology.graph.number_of_nodes() == len(topology.nodes)
        assert "networkx" in sys.modules
        print("ok")
    """)
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# no object per row
# ----------------------------------------------------------------------
def test_routing_allocates_per_next_hop_not_per_row():
    fleet = build_powerlaw_internet(autonomous_systems=60, hosts_per_leaf=10,
                                    seed=11)
    topo = fleet.topology
    routers = topo.border_routers()
    # Every node address, and one address no node holds inside each leaf
    # prefix (only the aggregate row answers it).
    destinations = [address for node in topo.nodes.values()
                    for address in sorted(node.addresses)]
    destinations += [prefix.host(255) for router in routers
                     for prefix in router.local_prefixes]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        topo.build_routes()
        for router in routers:
            for address in destinations:
                router.routing.next_link(address)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    installed = sum(router.routing.row_count() for router in routers)
    assert installed > 20_000
    assert grown < installed / 4, (grown, installed)
    for router in routers:
        records = {}
        for route in router.routing.routes():
            records.setdefault((route.link, route.metric), []).append(route)
        links = {link for link, _ in records}
        metrics = {metric for _, metric in records}
        assert len(records) <= len(links) * len(metrics)
        assert len(links) <= len(router.links)
        # ...and every row with that (link, metric) holds the same record
        shared = {id(record) for record in router.routing._rows.values()}
        assert len(shared) == len(records), router.name
        assert not any(isinstance(n, Host) and n.routing.row_count()
                       for n in topo.nodes.values())
