"""The routing core's contract, run on both of its solvers.

``repro.topology.dynamic.IncrementalRouting`` owns anchor folding, the miss
hook, the askers, the remembered solves, the install/withdraw loop and
``apply``; the flat solver (``DynamicRouting``, anchor-rooted Dijkstra) and
the policy solver (``PolicyRoutingManager``, valley-free) supply ``solve``
and ``restored_affects``.  Only anchors somebody asked for are tracked, on
both.  One seeded down/up script drives both, and after *every* event the
same four statements hold.
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
from repro.topology.hierarchy import PolicyTopology, build_hierarchy_internet
from repro.topology.powerlaw import build_powerlaw_internet

COUNTER_KEYS = {"anchors_recomputed", "dijkstras", "routes_installed",
                "routes_removed"}


def _flat():
    fleet = build_powerlaw_internet(autonomous_systems=30, hosts_per_leaf=2,
                                    seed=7)
    topo = fleet.topology
    core = topo.ensure_dynamic_routing()
    assert type(core) is DynamicRouting
    # Every router asks for every host: the 12 anchors with hosts are
    # tracked, with rows everywhere; the other 18 stay untracked throughout.
    for host in topo.hosts():
        for router in core._routers:
            router.routing.next_link(host.address)
    assert len(core.tracked()) == 12
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

    def test_recompute_offers_rows_to_the_moved_holders_only(self, build,
                                                            monkeypatch):
        """A group's rows on one router move together, so a recompute
        hands each holder whose (next hop, hops) moved its group in one
        ``install_rows`` and every row it offers changes: rows offered =
        ``routes_installed``, at most routers moved x the widest group."""
        topo, core = build()
        offered, probes = [], []
        install_rows, install = RoutingTable.install_rows, RoutingTable.install
        monkeypatch.setattr(
            RoutingTable, "install_rows",
            lambda self, keys, records:
                offered.append(len(keys)) or install_rows(self, keys, records))
        monkeypatch.setattr(
            RoutingTable, "install",
            lambda self, prefix, link, metric=0:
                probes.append(1) or install(self, prefix, link, metric))
        widest = max(len(core._remote_rows(anchor))
                     for anchor in core.tracked())
        total = 0
        for link, up in _script(topo, core, seed=3):
            assert topo.set_link_state(link, up)
            before = dict(core._solved)
            del offered[:], probes[:]
            stats = topo.reroute_incremental(
                **{"restored" if up else "downed": [link]})
            moved = sum(_moved(before[anchor], solved)
                        for anchor, solved in core._solved.items()
                        if solved is not before[anchor])
            assert probes == []  # access rows are written once, at first use
            assert sum(offered) == stats["routes_installed"]
            assert len(offered) <= moved
            assert sum(offered) <= widest * moved
            total += sum(offered)
        assert total

    def test_resolve_installs_only_where_the_pair_moved(self, build,
                                                        monkeypatch):
        """Against a remembered solve a re-solve writes or withdraws rows on
        the routers whose (next hop, hops) moved and nowhere else: at most
        group rows x moved routers, and not once when nothing moved."""
        topo, core = build()
        calls = []
        install_rows = RoutingTable.install_rows
        monkeypatch.setattr(
            RoutingTable, "install_rows",
            lambda self, keys, records:
                calls.extend(["install"] * len(keys))
                or install_rows(self, keys, records))
        remove_route = RoutingTable.remove_route
        monkeypatch.setattr(
            RoutingTable, "remove_route",
            lambda self, prefix:
                calls.append("remove_route") or remove_route(self, prefix))
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
        remembered solve installs: the twin re-solves every tracked anchor
        afresh on the live edge set, and each re-solve looks unlike the one
        it remembers (a fresh ``names``), so it rewrites the group on every
        holder instead of the moved ones."""
        topo, core = build()
        twin_topo, twin = build()
        solve = twin.solve

        def untrusted(anchor):
            solved = solve(anchor)
            if isinstance(solved, tuple):
                return solved._replace(names=list(solved.names))
            solved.names = list(solved.names)
            return solved

        twin.solve = untrusted
        for link, up in _script(topo, core, seed=3):
            change = {"restored" if up else "downed": [link]}
            assert topo.set_link_state(link, up)
            topo.reroute_incremental(**change)
            twin_link = twin_topo.link_between(link.a.name, link.b.name)
            assert twin_topo.set_link_state(twin_link, up)
            for anchor in list(twin.tracked()):
                twin._recompute(anchor, new_counters())
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
    assert "transit" in core._groups and not core._remote_rows("transit")
    assert _left_forwards_over(topo) == "transit"
    built = _rows(topo, core)
    assert built

    assert topo.set_link_state(link, False)
    stats = topo.reroute_incremental(downed=[link])
    assert stats["anchors_recomputed"] and stats["routes_installed"]
    assert _left_forwards_over(topo) == "detour"
    assert topo.set_link_state(link, True)
    assert topo.reroute_incremental(restored=[link])["routes_installed"]
    # back to what the first ask installed, row for row
    assert _rows(topo, core) == built


def test_build_routes_starts_over_on_the_live_graph():
    """A second ``build_routes`` drops every router row and hands the hooks
    to a fresh core: the next lookups solve on the network as it is now,
    downed links excluded, and the fresh core follows the next fault."""
    topo, link = _detour()
    assert _left_forwards_over(topo) == "transit"
    assert topo.set_link_state(link, False)
    topo.reroute_incremental(downed=[link])
    assert _left_forwards_over(topo) == "detour"
    before = topo.ensure_dynamic_routing()
    topo.build_routes()
    core = topo.ensure_dynamic_routing()
    assert core is not before and not core.tracked()
    assert not any(router.routing.row_count() for router in core._routers)
    assert _left_forwards_over(topo) == "detour"
    assert topo.set_link_state(link, True)
    assert topo.reroute_incremental(restored=[link])["routes_installed"]
    assert _left_forwards_over(topo) == "transit"


def _carved(build):
    """``r1 - r2 - r3``: r1 owns a /24 and homes ``h1`` from it; ``h`` is
    carved from the same /24 but homed on r3.  Flat, or policy-routed with
    r1 and r3 customers of r2."""
    topo = build()
    for name in ("r1", "r2", "r3"):
        topo.add_border_router(name, name)
    prefix = topo.allocate_network_prefix(24)
    topo.nodes["r1"].add_local_prefix(prefix)
    if isinstance(topo, PolicyTopology):
        topo.connect_customer("r1", "r2")
        topo.connect_customer("r3", "r2")
    else:
        topo.connect("r1", "r2")
        topo.connect("r3", "r2")
    for host, home in (("h1", "r1"), ("h", "r3")):
        topo.connect(topo.add_host(host, home, prefix=prefix), home)
    topo.build_routes()
    return topo


@pytest.mark.parametrize("build", [Topology, PolicyTopology],
                         ids=["flat", "policy"])
@pytest.mark.parametrize("first", ["h1", "h"])
def test_a_host_inside_another_anchors_aggregate_routes_alike_in_any_order(
        build, first):
    """Regression: a router that first looked up a host of r1 took r1's
    /24 and then forwarded ``h`` toward r1 (the /24 matched, no miss
    fired); on a fresh table it forwarded ``h`` toward r3.  Whoever takes
    an aggregate now takes the rows of every anchor inside it."""
    topo = _carved(build)
    r2 = topo.nodes["r2"].routing
    toward = {name: topo.link_between("r2", name) for name in ("r1", "r3")}
    r2.next_link(topo.nodes[first].address)
    assert r2.next_link(topo.nodes["h"].address) is toward["r3"]
    assert r2.next_link(topo.nodes["h1"].address) is toward["r1"]
    unused = topo.nodes["r1"].local_prefixes[0].host(200)
    assert r2.next_link(unused) is toward["r1"]
    core = topo.ensure_dynamic_routing()
    assert core.askers == {"r1": ("r2",), "r3": ("r2",)}
