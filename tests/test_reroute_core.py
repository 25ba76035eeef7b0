"""The incremental-reroute core's contract, run on both of its solvers.

``repro.topology.dynamic.IncrementalRouting`` owns anchor folding, the
remembered solves, the install/withdraw loop and ``apply``; the flat solver
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

from repro.router.nodes import Host, NetworkNode
from repro.router.routing import RoutingTable
from repro.routing_policy import PolicyRoutingManager
from repro.topology.dynamic import (
    DynamicRouting,
    IncrementalRouting,
    edge_key,
    new_counters,
)
from repro.topology.base import Topology
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


def _hierarchy():
    return build_hierarchy_internet(autonomous_systems=300, seed=7,
                                    host_stubs=6, hosts_per_stub=1)


def _policy():
    net = _hierarchy()
    topo = net.topology
    core = topo.ensure_dynamic_routing()
    assert type(core) is PolicyRoutingManager and core is topo.policy
    # Half of the host stubs are materialised; every other anchor (the
    # other three and ~290 host-less ASes) stays untracked throughout.
    # Every router asks for their rows: the lazy design's worst case, and
    # the state the contract below reads trees off.
    for router in net.host_stub_routers[:3]:
        core.materialize(router.name)
        for asking in core._routers:
            asking.routing.next_link(router.address)
    return topo, core


def _installed(core):
    """(anchor, router, prefix, route) for every installed row of every
    tracked group, read the slow way: every row on every router (the anchor
    reaches its own folded hosts over their access links)."""
    for anchor in core.tracked():
        for member, _ in core._groups[anchor]:
            for prefix in core._prefixes[member]:
                for router in core._routers:
                    route = router.routing.route_for(prefix)
                    if route is not None:
                        yield anchor, router, prefix, route


def _rows(topo, core):
    """Every installed row of every tracked group: the routing state."""
    return {(router.name, prefix): (route.link.name, route.metric)
            for _, router, prefix, route in _installed(core)}


def _trees(topo, core):
    """Link -> the tracked anchors whose installed tree crosses it."""
    trees = {}
    for anchor, _, _, route in _installed(core):
        trees.setdefault(route.link, set()).add(anchor)
    return trees


def _router_links(topo):
    return [link for link in topo.links
            if not isinstance(link.a, Host) and not isinstance(link.b, Host)]


def _moved(before, after):
    """Positions whose (next hop, hops) differ between two solves."""
    return sum(1 for pair in zip(before.next_hop, before.hops,
                                 after.next_hop, after.hops)
               if pair[:2] != pair[2:])


def _script(topo, core, seed):
    """Seeded events over router-router links tracked anchors route across:
    three plain down/up pairs, then two overlapping ones."""
    trees = _trees(topo, core)
    used = sorted(edge_key(link.a.name, link.b.name)
                  for link in _router_links(topo) if trees.get(link))
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
            crossing = _trees(topo, core).get(link, set())
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
            # link_down recomputes the anchors whose installed tree
            # crossed the edge, and only those
            if not up:
                assert set(solved) == crossing
            # no installed route of a tracked anchor crosses a downed
            # router-router edge
            trees = _trees(topo, core)
            for gone in down:
                assert not trees.get(gone)
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

    def test_resolve_installs_only_where_the_pair_moved(self, build,
                                                        monkeypatch):
        """Against a remembered solve a re-solve calls ``install`` on the
        routers whose (next hop, hops) moved and nowhere else: at most
        group rows x moved routers, and not once when nothing moved."""
        topo, core = build()
        for anchor in core.tracked():  # flat: remember every anchor's solve
            core._recompute(anchor, new_counters())
        calls = []
        for method in ("install", "remove_route"):
            original = getattr(RoutingTable, method)
            monkeypatch.setattr(
                RoutingTable, method,
                lambda self, *args, _original=original, _method=method:
                    calls.append(_method) or _original(self, *args))
        for anchor in core.tracked():
            core._recompute(anchor, new_counters())
        assert calls == []
        moved_somewhere = 0
        for link, up in _script(topo, core, seed=3):
            assert topo.set_link_state(link, up)
            before = dict(core._solved)
            del calls[:]
            stats = topo.reroute_incremental(
                **{"restored" if up else "downed": [link]})
            bound = 0
            for anchor, solved in core._solved.items():
                if solved is not before[anchor]:
                    moved = _moved(before[anchor], solved)
                    assert moved < len(core._routers) // 2
                    bound += moved * len(core._remote_rows(anchor))
            assert stats["routes_installed"] <= calls.count("install") <= bound
            assert stats["routes_removed"] <= calls.count("remove_route") <= bound
            moved_somewhere += bound
        assert moved_somewhere

    def test_diff_install_equals_probing_every_router(self, build):
        """After every event the rows are what a core that trusts no
        remembered solve installs: the flat twin forgets before each event
        (every re-solve probes every router, as a first one does), the
        policy twin materialises its anchors afresh on the live edge set."""
        topo, core = build()
        twin_topo, twin = build()
        anchors = list(core.tracked())
        for link, up in _script(topo, core, seed=3):
            change = {"restored" if up else "downed": [link]}
            assert topo.set_link_state(link, up)
            topo.reroute_incremental(**change)
            twin.forget()
            twin_link = twin_topo.link_between(link.a.name, link.b.name)
            assert twin_topo.set_link_state(twin_link, up)
            if isinstance(twin, PolicyRoutingManager):
                for anchor in anchors:
                    twin.materialize(anchor)
            else:
                twin_topo.reroute_incremental(
                    **{kind: [twin_link] for kind in change})
            assert _rows(topo, core) == _rows(twin_topo, twin)

    def test_link_no_tracked_anchor_uses_costs_nothing(self, build):
        topo, core = build()
        trees = _trees(topo, core)
        unused = next(link for link in _router_links(topo)
                      if not trees.get(link))
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
    assert victim not in core.tracked() and victim not in core._solved
    # First use solves against the live edge set: the downed uplink is
    # not in the freshly installed tree.
    core.materialize(victim)
    assert victim in core.tracked()
    assert victim not in _trees(topo, core).get(uplink, ())


def _lazy():
    """The ``_policy()`` hierarchy with nothing materialised and nobody
    having asked; its first host stub as the victim."""
    net = _hierarchy()
    return net, net.topology.policy, net.host_stub_routers[0]


def _rows_held(core):
    """Router name -> explicit rows in its table, for the routers with any."""
    return {router.name: router.routing.row_count()
            for router in core._routers if router.routing.row_count()}


def test_policy_materialize_writes_the_anchors_rows_only():
    net, core, victim = _lazy()
    assert _rows_held(core) == {}
    routes = core.materialize(victim.name)
    assert len(routes) > 250  # the solve is remembered for everyone...
    hosts = net.hosts_by_stub[victim.name]
    assert _rows_held(core) == {victim.name: len(hosts)}  # ...rows for one
    assert core.stats["routes_installed"] == len(hosts)


def test_policy_remote_lookup_makes_exactly_that_router_a_holder():
    net, core, victim = _lazy()
    host = net.hosts_by_stub[victim.name][0]
    core.materialize(victim.name)
    access_only = _rows_held(core)
    asker, bystander = net.host_stub_routers[1], net.host_stub_routers[2]

    link = asker.routing.next_link(host.address)
    assert link.other_end(asker).name == core.materialize(
        victim.name)[asker.name].next_hop
    remote = len(core._remote_rows(victim.name))
    assert _rows_held(core) == {**access_only, asker.name: remote}
    assert core._asked[victim.name] == {asker.name}
    assert bystander.routing.row_count() == 0
    # asking again, for the same address or the anchor's own, writes nothing
    written = core.stats["routes_installed"]
    assert asker.routing.next_link(host.address) is link
    assert asker.routing.next_link(victim.address) is link
    assert core.stats["routes_installed"] == written
    assert core.stats["anchors_materialized"] == 1


def test_policy_forget_then_materialize_realigns_a_holder():
    net, core, victim = _lazy()
    host = net.hosts_by_stub[victim.name][0]
    asker = net.host_stub_routers[1]
    link = asker.routing.next_link(host.address)
    held = _rows_held(core)
    # build_routes()' part of the deal: the tables are somebody else's now
    asker.routing.clear()
    core.forget()
    assert core.tracked() == {} and core._asked[victim.name] == {asker.name}
    core.materialize(victim.name)
    assert _rows_held(core) == held
    assert asker.routing.next_link(host.address) is link


def test_policy_first_use_at_the_anchor_forwards_over_the_access_link():
    """Regression (prototype): the anchor's own miss solved the anchor and
    wrote its access rows, the handler said "nothing installed on *you*",
    and the table memoised "no route" over the rows just written."""
    net, core, victim = _lazy()
    host = net.hosts_by_stub[victim.name][0]
    assert victim.name not in core.tracked()
    link = victim.routing.next_link(host.address)
    assert link is net.topology.link_between(victim.name, host.name)
    assert core.stats["anchors_materialized"] == 1


def _detour():
    """left - transit - right with a slower left - detour - right beside
    it and a host at each end; ``transit`` is a plain node with no address
    (and so no rows of its own)."""
    topo = Topology()
    for name in ("left", "right", "detour"):
        topo.add_border_router(name, name)
    topo._add_node(NetworkNode(topo.sim, "transit"))
    topo.connect("left", "transit", delay=0.001)
    topo.connect("transit", "right", delay=0.001)
    topo.connect("left", "detour", delay=0.010)
    topo.connect("detour", "right", delay=0.010)
    for name in ("left", "right"):
        topo.connect(topo.add_host(f"{name}_h", name), name)
    topo.build_routes()
    return topo, topo.link_between("transit", "right")


def _left_forwards_over(topo):
    link = topo.nodes["left"].routing.next_link(topo.nodes["right_h"].address)
    return link.other_end(topo.nodes["left"]).name


def test_flat_core_reroutes_around_a_node_without_an_address():
    """Regression: building ``DynamicRouting`` read ``node.address`` of
    every anchor and raised ``RuntimeError: node transit has no address
    assigned``.  Such a node is still an anchor, and still on other
    anchors' trees."""
    topo, link = _detour()
    core = topo.ensure_dynamic_routing()
    assert "transit" in core.tracked() and not core._remote_rows("transit")
    built = _rows(topo, core)
    assert _left_forwards_over(topo) == "transit"

    assert topo.set_link_state(link, False)
    stats = topo.reroute_incremental(downed=[link])
    assert stats["anchors_recomputed"] and stats["routes_installed"]
    assert _left_forwards_over(topo) == "detour"
    assert topo.set_link_state(link, True)
    assert topo.reroute_incremental(restored=[link])["routes_installed"]
    # back to what a fresh build_routes() installs, row for row
    assert _rows(topo, core) == built


def test_build_routes_makes_the_core_forget_its_solves():
    """``build_routes`` rewrites every table behind the core's back (from
    the as-built shape, downed links included): the next re-solve must
    probe every router again, not diff against a solve whose rows are
    gone."""
    topo, link = _detour()
    assert topo.set_link_state(link, False)
    topo.reroute_incremental(downed=[link])
    assert _left_forwards_over(topo) == "detour"
    topo.build_routes()
    assert _left_forwards_over(topo) == "transit"
    assert topo.reroute_incremental(downed=[link])["routes_installed"]
    assert _left_forwards_over(topo) == "detour"
