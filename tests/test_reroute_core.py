"""The incremental-reroute core's contract, run on both of its solvers.

``repro.topology.dynamic.IncrementalRouting`` owns anchor folding, the
edge-usage index, the install/withdraw loop and ``apply``; the flat solver
(``DynamicRouting``, Dijkstra, every anchor tracked) and the policy solver
(``PolicyRoutingManager``, valley-free, only materialised anchors tracked)
supply ``solve`` / ``tracked`` / ``restored_affects``.  One seeded down/up
script drives both, and after *every* event the same four statements hold.
The solver-specific suites (``test_faults.TestIncrementalReroute``,
``test_hierarchy``) check the routes themselves; this file checks the
skeleton they share.
"""

import random

import pytest

from repro.router.nodes import Host
from repro.router.routing import RoutingTable
from repro.routing_policy import PolicyRoutingManager
from repro.topology.dynamic import (
    DynamicRouting,
    IncrementalRouting,
    edge_key,
    new_counters,
)
from repro.topology.hierarchy import build_hierarchy_internet
from repro.topology.powerlaw import build_powerlaw_internet

COUNTER_KEYS = {"anchors_recomputed", "dijkstras", "routes_installed",
                "routes_removed"}


def _flat():
    fleet = build_powerlaw_internet(autonomous_systems=30, hosts_per_leaf=2,
                                    seed=7)
    topo = fleet.topology
    core = topo.ensure_dynamic_routing()
    assert type(core) is DynamicRouting
    return topo, core


def _policy():
    net = build_hierarchy_internet(autonomous_systems=300, seed=7,
                                   host_stubs=6, hosts_per_stub=1)
    topo = net.topology
    core = topo.ensure_dynamic_routing()
    assert type(core) is PolicyRoutingManager and core is topo.policy
    # Half of the host stubs are materialised; every other anchor (the
    # other three and ~290 host-less ASes) stays untracked throughout.
    for router in net.host_stub_routers[:3]:
        core.materialize(router.name)
    return topo, core


def _rows(topo, core):
    """Every installed row of every tracked group: the routing state."""
    rows = {}
    for anchor in core.tracked():
        for member, _ in core._groups[anchor]:
            for prefix in core._prefixes[member]:
                for router in core._routers:
                    route = router.routing.route_for(prefix)
                    if route is not None:
                        rows[router.name, prefix] = (route.link, route.metric)
    return rows


def _script(topo, core, seed):
    """Seeded events over router-router links tracked anchors route across:
    three plain down/up pairs, then two overlapping ones."""
    used = sorted(key for key, anchors in core._edge_anchors.items()
                  if anchors and not any(
                      isinstance(topo.nodes[name], Host) for name in key))
    rng = random.Random(seed)
    links = [topo.link_between(*key) for key in rng.sample(used, 5)]
    events = []
    for link in links[:3]:
        events += [(link, False), (link, True)]
    a, b = links[3:]
    return events + [(a, False), (b, False), (a, True), (b, True)]


@pytest.mark.parametrize("build", [_flat, _policy], ids=["flat", "policy"])
class TestCoreContract:
    def test_every_event_keeps_the_contract(self, build, monkeypatch):
        topo, core = build()
        assert isinstance(core, IncrementalRouting)
        tracked_at_start = set(core.tracked())
        pristine = _rows(topo, core)
        assert pristine

        solved = []
        solve = core.solve
        monkeypatch.setattr(
            core, "solve", lambda anchor: solved.append(anchor) or solve(anchor))

        down = set()
        total = new_counters()
        for link, up in _script(topo, core, seed=3):
            assert topo.set_link_state(link, up)
            down.symmetric_difference_update({link})
            del solved[:]
            stats = topo.reroute_incremental(
                **{"restored" if up else "downed": [link]})

            # apply returns exactly the four counters
            assert set(stats) == COUNTER_KEYS == set(new_counters())
            for key in COUNTER_KEYS:
                total[key] += stats[key]
            # one solve per recomputed anchor, tracked anchors only: an
            # untracked (unmaterialised) anchor costs zero solves
            assert len(solved) == len(set(solved)) == stats["anchors_recomputed"]
            assert set(solved) <= tracked_at_start
            assert set(core.tracked()) == tracked_at_start
            # the index is what the installed tables say, both directions
            for anchor in core.tracked():
                assert core._anchor_edges[anchor] == \
                    core._installed_edges(anchor), anchor
            for key, anchors in core._edge_anchors.items():
                assert anchors == {a for a, edges in core._anchor_edges.items()
                                   if key in edges}, key
            assert set(core._anchor_edges) == tracked_at_start
            # no installed route of a tracked anchor crosses a downed
            # router-router edge
            for gone in down:
                assert not core._edge_anchors.get(
                    edge_key(gone.a.name, gone.b.name))
            # down-then-up of the same link(s) restores the pristine rows
            if not down:
                assert _rows(topo, core) == pristine
        assert total["anchors_recomputed"] > 0
        assert total["routes_installed"] > 0

    def test_recompute_probes_routers_plus_changed_rows(self, build,
                                                        monkeypatch):
        """A group's rows on one router move together, so a recompute
        costs one ``install`` probe per router whose rows are in line and
        one per row on the routers that moved — not routers x rows."""
        topo, core = build()
        probes = []
        install = RoutingTable.install
        monkeypatch.setattr(
            RoutingTable, "install",
            lambda self, prefix, link, metric=0:
                probes.append(1) or install(self, prefix, link, metric))
        widest = max(sum(len(core._prefixes[member])
                         for member, _ in core._groups[anchor])
                     for anchor in core.tracked())
        for link, up in _script(topo, core, seed=3):
            assert topo.set_link_state(link, up)
            del probes[:]
            stats = topo.reroute_incremental(
                **{"restored" if up else "downed": [link]})
            assert len(probes) <= (
                stats["anchors_recomputed"] * len(core._routers)
                + widest * stats["routes_installed"])
            assert stats["routes_installed"] <= len(probes)

    def test_link_no_tracked_anchor_uses_costs_nothing(self, build):
        topo, core = build()
        unused = next(
            link for link in topo.links
            if not isinstance(link.a, Host) and not isinstance(link.b, Host)
            and not core._edge_anchors.get(edge_key(link.a.name, link.b.name)))
        before = _rows(topo, core)
        assert topo.set_link_state(unused, False)
        assert topo.reroute_incremental(downed=[unused]) == new_counters()
        assert _rows(topo, core) == before


def test_policy_untracked_anchor_is_solved_only_on_first_use():
    topo, core = _policy()
    victim = next(name for name in core._groups
                  if name not in core.tracked() and len(core._groups[name]) > 1)
    uplink = next(link for link in topo.nodes[victim].links
                  if not isinstance(link.other_end(topo.nodes[victim]), Host))
    assert topo.set_link_state(uplink, False)
    assert set(topo.reroute_incremental(downed=[uplink])) == COUNTER_KEYS
    assert victim not in core.tracked() and victim not in core._anchor_edges
    # First use solves against the live edge set: the downed uplink is
    # not in the freshly installed tree.
    core.materialize(victim)
    assert victim in core.tracked()
    assert edge_key(uplink.a.name, uplink.b.name) not in core._anchor_edges[victim]
    assert core._anchor_edges[victim] == core._installed_edges(victim)
