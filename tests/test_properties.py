"""Property-based tests (hypothesis) on core data structures and invariants."""

import enum
import itertools
import json
import random
import re
from collections import deque

import networkx as nx
import pytest

from hypothesis import example, given, settings, strategies as st

from repro.analysis.metrics import BucketStore, _spread_train_buckets
from repro.experiments.spec import EncodedJSON, document_json
from repro.net.address import IPAddress, Prefix
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, QueueStats
from repro.net.train import PacketTrain
from repro.router.filter_table import FilterTable, FilterTableFullError
from repro.router.nodes import BorderRouter, Host
from repro.router.policer import TokenBucket
from repro.router.routing import RoutingTable
from repro.router.shadow_cache import ShadowCache
from repro.routing_policy import RelationshipMap, valley_free_routes
from repro.sim.engine import Simulator
from repro.sim.process import TrainProcess
from repro.sim.randomness import SeededRandom, stable_seed
from repro.topology.adjacency import add_edge, remove_edge, shortest_path_tree
from repro.topology.base import Topology
from repro.topology.dynamic import fold_leaves, project_routers
from repro.topology.failover import build_failover
from repro.topology.figure1 import build_figure1
from repro.topology.hierarchy import build_hierarchy_internet
from repro.topology.powerlaw import build_powerlaw_internet
from repro.topology.tree import build_dumbbell, build_provider_tree
from tests.valley_free_oracle import heap_valley_free_routes


addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPAddress)
prefix_lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw):
    length = draw(prefix_lengths)
    raw = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    mask = 0 if length == 0 else ((1 << 32) - 1) << (32 - length) & ((1 << 32) - 1)
    return Prefix(IPAddress(raw & mask), length)


class TestAddressProperties:
    @given(addresses)
    def test_parse_str_roundtrip(self, address):
        assert IPAddress.parse(str(address)) == address

    @given(prefixes(), addresses)
    def test_contains_agrees_with_mask_arithmetic(self, prefix, address):
        expected = (address.value & prefix.mask) == prefix.network.value
        assert prefix.contains(address) == expected

    @given(prefixes())
    def test_prefix_contains_its_own_network_and_last_address(self, prefix):
        assert prefix.contains(prefix.network)
        last = IPAddress(prefix.network.value + prefix.num_addresses - 1)
        assert prefix.contains(last)

    @given(prefixes(), prefixes())
    def test_overlap_is_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(prefixes())
    def test_subnet_split_partitions_the_prefix(self, prefix):
        if prefix.length > 30:
            return
        children = list(prefix.subnets(prefix.length + 2))
        assert len(children) == 4
        assert sum(c.num_addresses for c in children) == prefix.num_addresses
        for i, a in enumerate(children):
            assert prefix.contains(a.network)
            for b in children[i + 1:]:
                assert not a.overlaps(b)


class TestFlowLabelProperties:
    @given(addresses, addresses, addresses, addresses)
    def test_covers_implies_matches(self, src_a, dst_a, src_b, dst_b):
        """If label A covers label B, every packet matching B matches A."""
        broad = FlowLabel.between(src_a, None if dst_a.value % 2 else dst_a)
        narrow = FlowLabel.between(src_b, dst_b)
        packet = Packet.data(src_b, dst_b)
        if broad.covers(narrow) and narrow.matches(packet):
            assert broad.matches(packet)

    @given(addresses, addresses)
    def test_exact_label_matches_exactly_its_flow(self, src, dst):
        label = FlowLabel.between(src, dst)
        assert label.matches(Packet.data(src, dst))
        other = IPAddress((src.value + 1) % (1 << 32))
        if other != src:
            assert not label.matches(Packet.data(other, dst))

    @given(addresses, addresses)
    def test_covers_is_reflexive(self, src, dst):
        label = FlowLabel.between(src, dst)
        assert label.covers(label)


class TestFilterTableProperties:
    @given(st.lists(st.tuples(addresses, st.floats(min_value=0.1, max_value=100.0)),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, installs, capacity):
        clock = {"now": 0.0}
        table = FilterTable(capacity=capacity, clock=lambda: clock["now"])
        for address, duration in installs:
            clock["now"] += 0.5
            try:
                table.install(FlowLabel.from_source(address), duration)
            except FilterTableFullError:
                pass
            assert table.occupancy <= capacity
        assert table.peak_occupancy <= capacity

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_every_filter_eventually_expires(self, durations):
        clock = {"now": 0.0}
        table = FilterTable(capacity=None, clock=lambda: clock["now"])
        for index, duration in enumerate(durations):
            table.install(FlowLabel.from_source(IPAddress(index + 1)), duration)
        clock["now"] = 11.0  # past the longest possible expiry
        assert table.occupancy == 0


# A universe small enough (four addresses, mostly /32 operations, every
# other operation a lookup) that memoized answers, changes to the very row
# that produced them, and covering shorter prefixes collide all the time.
def _covering(address, length):
    """The /``length`` prefix that contains ``address``."""
    return Prefix(IPAddress(address.value >> (32 - length) << (32 - length)),
                  length)


lpm_addresses = st.builds(
    lambda net, host: IPAddress(0x0A000000 | (net << 8) | host),
    st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
lpm_prefixes = st.builds(_covering, lpm_addresses,
                         st.sampled_from([0, 24, 31] + [32] * 6))
lpm_links = st.sampled_from(["via-a", "via-b", "via-c"])
lpm_lookup = st.tuples(st.just("lookup"), lpm_addresses)
lpm_ops = st.one_of(
    st.tuples(st.just("install"), lpm_prefixes, lpm_links,
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("remove"), lpm_prefixes),
    st.tuples(st.just("default"), lpm_links),
    lpm_lookup, lpm_lookup, lpm_lookup,
)


def _longest_match(model, address):
    """Brute force: every row, keep the longest prefix that contains it."""
    best = None
    for prefix, (link, metric) in model.items():
        if prefix.contains(address) and (best is None
                                         or prefix.length > best[0].length):
            best = (prefix, link, metric)
    return best


class TestRoutingTableProperties:
    @given(st.lists(lpm_ops, min_size=8, max_size=60),
           st.dictionaries(lpm_addresses, st.sampled_from([24, 32]), max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_lookup_equals_brute_force_longest_match(self, ops, lazy):
        """Through any interleaving of install / remove / set_default /
        lookup, with a miss handler that materialises a /32 or a /24 on
        demand, the table (exact probe, shorter-prefix scan, memo) answers
        what a scan of every row would."""
        table = RoutingTable()
        model = {}
        default = None
        materialised = []

        def on_miss(address):
            length = lazy.get(address)
            if length is None:
                return False
            prefix = _covering(address, length)
            model[prefix] = ("via-lazy", 9)
            table.install(prefix, "via-lazy", 9)
            materialised.append(address)
            return True

        table.miss_handler = on_miss
        for op in ops:
            if op[0] == "install":
                _, prefix, link, metric = op
                changed = model.get(prefix) != (link, metric)
                assert table.install(prefix, link, metric) == changed
                model[prefix] = (link, metric)
            elif op[0] == "remove":
                assert table.remove_route(op[1]) == (
                    model.pop(op[1], None) is not None)
            elif op[0] == "default":
                default = table.set_default(op[1])
            else:
                address = op[1]
                unrouted = _longest_match(model, address) is None
                del materialised[:]
                got = table.lookup(address)
                # the handler fires exactly when no explicit row matches
                assert materialised == (
                    [address] if unrouted and address in lazy else [])
                want = _longest_match(model, address)
                if want is None:
                    assert got == default
                else:
                    assert (got.prefix, got.link, got.metric) == want
                assert table.next_link(address) is (
                    got.link if got is not None else None)
        assert {route.prefix: (route.link, route.metric)
                for route in table.routes()} == model


class TestRoutingWorkGate:
    """Deterministic work, no clock: the rows shorter than /32 are the only
    ones a lookup walks, and walking them starts with (re)building the scan
    list — so a regression to scanning fails here by count of those builds
    and by the size of what they return."""

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        shorter_rows = RoutingTable._shorter_rows

        def counted(self):
            scan = shorter_rows(self)
            scans.append(len(scan))
            return scan

        monkeypatch.setattr(RoutingTable, "_shorter_rows", counted)
        return scans

    def test_an_installed_host_row_is_found_without_scanning(self, monkeypatch):
        table = RoutingTable()
        for net in range(100):
            table.add_route(f"10.{net}.0.0/24", "aggregate")
            for host in range(1, 10):
                table.add_route(f"10.{net}.0.{host}/32", "host", metric=host)
        assert len(table) == 1000
        scans = self._count_scans(monkeypatch)
        for net in range(100):
            route = table.lookup(f"10.{net}.0.7")
            assert (route.prefix.length, route.link, route.metric) == (32, "host", 7)
        assert scans == []
        # No /32: only the hundred shorter rows are candidates, and the
        # answer is memoized.
        assert table.lookup("10.99.0.200").link == "aggregate"
        assert scans == [100]
        assert table.lookup("10.99.0.200").link == "aggregate"
        assert table.lookup("10.98.0.200").prefix == Prefix.parse("10.98.0.0/24")
        assert scans == [100]

    def test_building_the_routing_core_scans_and_writes_no_rows(
            self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        fleet = build_powerlaw_internet(autonomous_systems=60,
                                        hosts_per_leaf=4, seed=11)
        core = fleet.topology.ensure_dynamic_routing()
        routers = fleet.topology.border_routers()
        assert len(core._groups) >= 60 and not core.tracked()
        assert not any(router.routing.row_count() for router in routers)
        assert scans == []
        # A router's first lookup toward a leaf scans its (still empty)
        # shorter rows once and takes the leaf's group; every other
        # address of the group is then an exact /32 hit.
        leaf = next(anchor for anchor, group in core._groups.items()
                    if len(group) > 2)
        asker = next(router for router in routers if router.name != leaf)
        for member, _ in core._groups[leaf]:
            assert asker.routing.next_link(
                fleet.topology.nodes[member].address) is not None
        assert scans == [0]
        assert list(core.tracked()) == [leaf]


#: (a, b, transit?, failed?) over node numbers: a buys transit from b, or
#: the two peer; the edge may be among the failed ones.
relationship_edges = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans(),
              st.booleans()), max_size=30)


class TestValleyFreeSolverProperties:
    @given(st.integers(2, 10), relationship_edges)
    # A BFS level that is not in name order (as09 is found before as05):
    # as07's next hop must still be the smaller of the two.
    @example(10, [(0, 1, True, False), (0, 2, True, False),
                  (1, 9, True, False), (2, 5, True, False),
                  (9, 7, True, False), (5, 7, True, False)])
    @settings(max_examples=200, deadline=None)
    def test_indexed_solver_equals_the_name_keyed_heap_oracle(self, size,
                                                              edges):
        """Any declared edge set (cycles and valleys welcome, not only
        hierarchies) x any failed subset x every destination, one with no
        relationships included."""
        names = [f"as{i:02d}" for i in range(size)]
        rels = RelationshipMap()
        failed = set()
        for a, b, transit, fails in edges:
            a, b = names[a % size], names[b % size]
            if a != b and rels.relationship(a, b) is None:
                (rels.add_customer if transit else rels.add_peer)(a, b)
                if fails:
                    failed.add(frozenset((a, b)))
        destinations = names + ["no-relationships"]
        for down in (set(), failed):
            def edge_up(a, b):
                return frozenset((a, b)) not in down
            for destination in destinations:
                got = valley_free_routes(destination, rels, edge_up=edge_up)
                want = heap_valley_free_routes(destination, rels,
                                               edge_up=edge_up)
                assert dict(got) == want
                assert len(got) == len(want)
                assert all(got.get(name) == want.get(name)
                           for name in destinations)


def _lazy_hierarchy():
    """The seeded 300-AS hierarchy of ``tests/test_reroute_core.py``, with
    what the draws below index into: every router, the destinations (each
    host stub's host, router and an unused address of its /24, and one
    address nobody owns) and the links worth flipping — the host stubs'
    access links and uplinks, and their providers' links to the tiers
    above."""
    net = build_hierarchy_internet(autonomous_systems=300, seed=7,
                                   host_stubs=6, hosts_per_stub=1)
    topo = net.topology
    routers = topo.policy._routers
    destinations = [IPAddress.parse("192.0.2.1")]
    edges = []
    for stub in net.host_stub_routers:
        destinations += [net.hosts_by_stub[stub.name][0].address, stub.address,
                         IPAddress(stub.local_prefixes[0].network.value + 200)]
        for link in stub.links:
            edges.append((link.a.name, link.b.name))
            provider = link.other_end(stub)
            edges += [(up.a.name, up.b.name) for up in provider.links
                      if net.tier_of.get(up.other_end(provider).name, 3) < 3]
    return net, routers, destinations, sorted(set(edges))


_, _ROUTERS, _DESTINATIONS, _EDGES = _lazy_hierarchy()

lazy_ops = st.lists(st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, len(_ROUTERS) - 1),
              st.integers(0, len(_DESTINATIONS) - 1)),
    st.tuples(st.sampled_from(["down", "up"]),
              st.integers(0, len(_EDGES) - 1), st.just(0)),
), min_size=4, max_size=24)


def _table_rows(router):
    return {route.prefix: (route.link.name, route.metric)
            for route in router.routing.routes()}


class TestLazyRoutesEqualEveryoneAsked:
    """A router holds a destination anchor's rows once it has asked for
    them.  The oracle is the same manager with every router asked — the
    old eager state, and the lazy design's worst case: through any
    sequence of lookups and link flips the two forward alike."""

    @staticmethod
    def _everyone_asks(routers, core, asked):
        """Every router asks for every anchor materialised since last time."""
        for anchor in core.tracked():
            if anchor not in asked:
                asked.add(anchor)
                address = next(iter(core._prefixes[anchor])).network
                for router in routers:
                    router.routing.next_link(address)

    @staticmethod
    def _flip(topo, edge, up):
        link = topo.link_between(*edge)
        if not topo.set_link_state(link, up):
            return None
        return topo.reroute_incremental(
            **{"restored" if up else "downed": [link]})

    @staticmethod
    def _crossing(twin, edge):
        """The tracked anchors with a row over ``edge`` on one of its ends,
        read off the twin's tables (where everyone holds every row): what a
        ``link_down`` of it has to re-solve."""
        core, link = twin.policy, twin.link_between(*edge)
        return {anchor for anchor in core.tracked()
                for member, _ in core._groups[anchor]
                for prefix in core._prefixes[member]
                for end in (link.a, link.b)
                if getattr(end.routing.route_for(prefix), "link", None) is link}

    @given(lazy_ops)
    # st_021's only uplink goes down, two far routers ask for its host (no
    # route, memoised), the uplink returns: both must forward again.
    @example([("down", _EDGES.index(("st_021", "t2_14")), 0),
              ("lookup", 0, 1), ("lookup", 250, 1),
              ("up", _EDGES.index(("st_021", "t2_14")), 0)])
    @settings(max_examples=40, deadline=None)
    def test_any_lookup_and_fault_sequence_forwards_alike(self, ops):
        lazy_net, lazy_routers, destinations, edges = _lazy_hierarchy()
        twin_net, twin_routers, _, _ = _lazy_hierarchy()
        lazy, twin = lazy_net.topology, twin_net.topology
        everyone = set()
        looked_up = set()
        down = set()

        def answer(routers, lookup):
            link = routers[lookup[0]].routing.next_link(destinations[lookup[1]])
            return link and link.name

        for kind, *args in ops:
            if kind == "lookup":
                assert answer(lazy_routers, args) == answer(twin_routers, args)
                looked_up.add(tuple(args))
            else:
                edge, up = edges[args[0]], kind == "up"
                solves = (len(twin.policy.tracked()) if up
                          else len(self._crossing(twin, edge)))
                stats = self._flip(lazy, edge, up)
                twin_stats = self._flip(twin, edge, up)
                assert (stats is None) == (twin_stats is None) == (
                    (edge in down) != up)
                if stats is not None:
                    down.symmetric_difference_update({edge})
                    for key in ("anchors_recomputed", "dijkstras"):
                        assert stats[key] == twin_stats[key] == solves
            self._everyone_asks(twin_routers, twin.policy, everyone)
            self._assert_subset_and_equal_on_holders(lazy, twin)
        # Everything restored: every asker forwards as on a topology that
        # never saw a fault, whatever its table memoised meanwhile.
        for edge in sorted(down):
            self._flip(lazy, edge, True)
            self._flip(twin, edge, True)
        self._assert_subset_and_equal_on_holders(lazy, twin)
        fresh_routers = _lazy_hierarchy()[1]
        for lookup in sorted(looked_up):
            want = answer(fresh_routers, lookup)
            assert answer(lazy_routers, lookup) == want
            assert answer(twin_routers, lookup) == want

    @staticmethod
    def _assert_subset_and_equal_on_holders(lazy, twin):
        core = lazy.policy
        assert set(core.tracked()) == set(twin.policy.tracked())
        rows = {router.name: _table_rows(router) for router in core._routers}
        twin_rows = {router.name: _table_rows(router)
                     for router in twin.policy._routers}
        holders = set(core.tracked()).union(*core._asked.values())
        for name, held in rows.items():
            assert held.items() <= twin_rows[name].items()
            assert name in holders or not held
        for anchor, asked in core._asked.items():
            for prefix, _ in core._remote_rows(anchor):
                for name in asked:
                    assert rows[name].get(prefix) == twin_rows[name].get(prefix)

    def test_asker_of_an_unreachable_anchor_forwards_after_link_up(self):
        net = _lazy_hierarchy()[0]
        topo, core = net.topology, net.topology.policy
        victim = net.host_stub_routers[0]
        host = net.hosts_by_stub[victim.name][0]
        uplinks = [link for link in victim.links if link.other_end(victim)
                   is not host]
        for link in uplinks:
            assert topo.set_link_state(link, False)
            topo.reroute_incremental(downed=[link])
        asker = net.host_stub_routers[-1]
        assert asker.routing.next_link(host.address) is None
        assert asker.routing.row_count() == 0
        assert core._asked[victim.name] == {asker.name}  # a holder all the same
        for link in uplinks:
            assert topo.set_link_state(link, True)
            topo.reroute_incremental(restored=[link])
        link = asker.routing.next_link(host.address)
        assert link is not None and link.other_end(asker).name == \
            core.materialize(victim.name)[asker.name].next_hop


class _EagerRoutes:
    """The eager reference for flat routing, as the simulator used to run
    it: one source-rooted Dijkstra per router over the leaf-folded router
    graph and one row per (router, destination prefix) at build time; after
    a fault, the anchors whose rows cross a downed edge (read off the
    tables until an anchor has been re-solved, off its solve after) or
    whose distance a restored edge strictly improves are re-solved, rooted
    at the anchor, and rewritten on every router.  Rows live in plain
    dicts; :meth:`next_link` is longest-prefix match over them."""

    def __init__(self, topo):
        self.topo = topo
        self.fold = fold_leaves(topo)
        self.prefixes = topo._destination_prefixes()
        self.groups = {name: [(name, 0)] for name in topo.nodes
                       if name not in self.fold}
        for host, anchor in self.fold.items():
            self.groups[anchor].append((host, 1))
        self.routers = [name for name, node in topo.nodes.items()
                        if not isinstance(node, Host)]
        self.rows = {name: {} for name in self.routers}
        self.solved = {}
        graph = project_routers(topo.adjacency, self.fold)
        for router in self.routers:
            dist, pred = shortest_path_tree(graph, router)
            first = {}
            for node in dist:  # settling order: a predecessor comes first
                if node != router:
                    before = pred[node]
                    hop, count = ((node, 0) if before == router
                                  else first[before])
                    first[node] = (hop, count + 1)
            for anchor, (hop, count) in first.items():
                self._write(router, anchor, topo.adjacency[router][hop], count)
            self._write_access(router)

    def _write(self, router, anchor, link, hops):
        for member, extra in self.groups[anchor]:
            for prefix in self.prefixes[member]:
                self.rows[router][prefix] = (link, hops + extra)

    def _write_access(self, anchor):
        for member, extra in self.groups[anchor]:
            if extra:
                link = self.topo.adjacency[anchor][member]
                for prefix in self.prefixes[member]:
                    self.rows[anchor][prefix] = (link, 1)

    def _crosses(self, anchor, link):
        a, b = link.a.name, link.b.name
        fold = self.fold.get(a) or self.fold.get(b)
        if fold is not None:
            return fold == anchor
        if anchor in self.solved:
            pred = self.solved[anchor]
            return pred.get(a) == b or pred.get(b) == a
        first = self.prefixes[anchor][:1]
        return any(self.rows[end].get(prefix, (None,))[0] is link
                   for prefix in first for end in (a, b) if end in self.rows)

    def _improved(self, graph, link):
        """The improvement test, searched with the edge taken out of
        ``graph`` and put back — last among its ends' neighbours, where
        the solves that follow find it."""
        a, b = link.a.name, link.b.name
        fold = self.fold.get(a) or self.fold.get(b)
        if fold is not None:
            return {fold}
        remove_edge(graph, link)
        du, _ = shortest_path_tree(graph, a)
        dv, _ = shortest_path_tree(graph, b)
        add_edge(graph, link)
        inf = float("inf")
        return {anchor for anchor in self.groups
                if (du.get(anchor, inf), dv.get(anchor, inf)) != (inf, inf)
                and abs(du.get(anchor, inf) - dv.get(anchor, inf))
                > link.delay + 1e-12}

    def flip(self, link, up):
        graph = project_routers(self.topo.routing_adjacency, self.fold)
        affected = (self._improved(graph, link) if up else
                    {anchor for anchor in self.groups
                     if self._crosses(anchor, link)})
        for anchor in sorted(affected):
            dist, pred = shortest_path_tree(graph, anchor)
            hops = {anchor: 0}
            for node in dist:
                if node != anchor:
                    hops[node] = hops[pred[node]] + 1
            for router in self.routers:
                if router == anchor:
                    continue
                if router in dist:
                    link_to = self.topo.adjacency[router][pred[router]]
                    self._write(router, anchor, link_to, hops[router])
                else:
                    for member, _ in self.groups[anchor]:
                        for prefix in self.prefixes[member]:
                            self.rows[router].pop(prefix, None)
            self.solved[anchor] = pred

    def next_link(self, router, address):
        rows = self.rows[router]
        for length in range(32, -1, -1):
            prefix = Prefix(IPAddress(address.value >> (32 - length)
                                      << (32 - length) if length else 0),
                            length)
            if prefix in rows:
                return rows[prefix][0]
        return None


def _flat_topology(kind, size, seed):
    if kind == "powerlaw":
        return build_powerlaw_internet(autonomous_systems=size,
                                       hosts_per_leaf=2, seed=seed).topology
    return {"failover": build_failover, "tree": build_provider_tree,
            "dumbbell": build_dumbbell, "figure1": build_figure1}[kind]().topology


flat_builds = st.one_of(
    st.tuples(st.just("powerlaw"), st.integers(20, 60), st.integers(1, 12)),
    st.tuples(st.sampled_from(["failover", "tree", "dumbbell", "figure1"]),
              st.just(0), st.just(0)))


class TestFlatLookupsEqualTheEagerReference:
    """Flat router rows are written when a router asks; the reference
    writes them all at build time and rewrites them on every router after
    a fault.  Through a seeded link_down / link_up history on any shipped
    flat builder, every router forwards every node address alike — asked
    after every event (``everyone``), or asked a seeded few at a time and
    all at the end (``lazy``, so that rows are first written *after*
    faults)."""

    @given(flat_builds, st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_every_lookup_equals_the_eager_reference(self, build, seed,
                                                     events):
        everyone, lazy = _flat_topology(*build), _flat_topology(*build)
        model = _EagerRoutes(everyone)
        rng = random.Random(seed)
        routers = [name for name, node in everyone.nodes.items()
                   if not isinstance(node, Host)]
        addresses = [address for node in everyone.nodes.values()
                     for address in sorted(node.addresses)]

        def same(topo, pairs):
            for router, address in pairs:
                got = topo.nodes[router].routing.next_link(address)
                want = model.next_link(router, address)
                assert (got and got.name) == (want and want.name), (
                    router, address)

        every_pair = [(router, address) for router in routers
                      for address in addresses]
        same(everyone, every_pair)
        for _ in range(events):
            index = rng.randrange(len(everyone.links))
            for topo in (everyone, lazy):
                link = topo.links[index]
                up = not link.up
                assert topo.set_link_state(link, up)
                topo.reroute_incremental(
                    **{"restored" if up else "downed": [link]})
            model.flip(everyone.links[index], up)
            same(everyone, every_pair)
            same(lazy, rng.sample(every_pair, min(20, len(every_pair))))
        same(lazy, every_pair)

    #: Six routers, ten links of 10 or 20 ms, in connection order: equal-
    #: cost paths everywhere, and four (router, anchor) pairs whose
    #: router-rooted search picks another first hop than the anchor's tree.
    TIED = [("r2", "r5", 0.02), ("r4", "r5", 0.01), ("r1", "r3", 0.01),
            ("r2", "r3", 0.02), ("r0", "r1", 0.02), ("r1", "r2", 0.01),
            ("r1", "r4", 0.02), ("r0", "r3", 0.02), ("r2", "r4", 0.02),
            ("r0", "r5", 0.01)]

    def test_tied_paths_follow_the_anchor_rooted_tree(self):
        """Where equal-cost paths tie, a router's row toward an anchor is
        its predecessor on networkx's anchor-rooted shortest-path tree —
        the path a packet takes — for the anchor and its host alike.  The
        tree is searched on the router projection the core searches: the
        graph's ``copy()`` (which re-inserts every edge at both ends when
        its first end is visited) without the folded hosts."""
        topo = Topology()
        routers = [f"r{index}" for index in range(6)]
        for name in routers:
            topo.add_border_router(name, name)
        for a, b, delay in self.TIED:
            topo.connect(a, b, delay=delay)
        for name in routers:
            topo.connect(topo.add_host(f"{name}_h", name), name)
        topo.build_routes()
        projection = topo.graph.copy()
        projection.remove_nodes_from(fold_leaves(topo))
        differs = 0
        for anchor in routers:
            tree = nx.single_source_dijkstra_path(projection, anchor,
                                                  weight="delay")
            for router in routers:
                if router == anchor:
                    continue
                want = topo.link_between(router, tree[router][-2])
                table = topo.nodes[router].routing
                for member in (anchor, f"{anchor}_h"):
                    assert table.next_link(topo.nodes[member].address) is want
                own = nx.single_source_dijkstra_path(
                    projection, router, weight="delay")[anchor]
                differs += own[1] != tree[router][-2]
        assert differs == 4


class TestTokenBucketProperties:
    @given(st.floats(min_value=0.5, max_value=100.0),
           st.floats(min_value=1.0, max_value=50.0),
           st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_acceptances_bounded_by_burst_plus_rate_times_time(self, rate, burst, gaps):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate=rate, burst=burst, clock=lambda: clock["now"])
        accepted = 0
        for gap in gaps:
            clock["now"] += gap
            if bucket.allow():
                accepted += 1
        elapsed = sum(gaps)
        # The token bucket's defining invariant, with a +1 slack for the
        # token that may be exactly at the boundary.
        assert accepted <= burst + rate * elapsed + 1


class TestQueueProperties:
    @given(st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=100),
           st.integers(min_value=1000, max_value=20000))
    @settings(max_examples=50, deadline=None)
    def test_conservation_and_capacity(self, sizes, capacity):
        queue = DropTailQueue(capacity_bytes=capacity)
        source = IPAddress.parse("10.0.0.1")
        destination = IPAddress.parse("10.0.1.1")
        for size in sizes:
            queue.enqueue(Packet.data(source, destination, size=size))
            assert queue.bytes_queued <= capacity
        drained = 0
        while queue.dequeue() is not None:
            drained += 1
        assert drained == queue.stats.enqueued
        assert queue.stats.enqueued + queue.stats.dropped == len(sizes)


class _EagerQueue:
    """The drop-tail queue as it was while every queue owned a ``deque``
    from construction: the model the lazily allocated one must equal."""

    def __init__(self, capacity_bytes, capacity_packets):
        self.capacity_bytes = capacity_bytes
        self.capacity_packets = capacity_packets
        self.stats = QueueStats()
        self.queue = deque()
        self.bytes = 0

    def would_drop(self, packet):
        if (self.capacity_packets is not None
                and len(self.queue) >= self.capacity_packets):
            return True
        return self.bytes + packet.size > self.capacity_bytes

    def enqueue(self, packet):
        if self.would_drop(packet):
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            return False
        return self.enqueue_priority(packet)

    def enqueue_priority(self, packet):
        stats = self.stats
        self.queue.append(packet)
        self.bytes += packet.size
        stats.enqueued += 1
        stats.bytes_enqueued += packet.size
        stats.peak_depth_packets = max(stats.peak_depth_packets,
                                       len(self.queue))
        stats.peak_depth_bytes = max(stats.peak_depth_bytes, self.bytes)
        return True

    def dequeue(self):
        if not self.queue:
            return None
        packet = self.queue.popleft()
        self.bytes -= packet.size
        self.stats.dequeued += 1
        return packet

    def peek(self):
        return self.queue[0] if self.queue else None

    def clear(self):
        discarded = len(self.queue)
        self.stats.flushed += discarded
        self.stats.bytes_flushed += self.bytes
        self.queue.clear()
        self.bytes = 0
        return discarded


queue_operations = st.lists(st.one_of(
    st.tuples(st.sampled_from(["enqueue", "enqueue_priority", "would_drop"]),
              st.integers(min_value=1, max_value=1500)),
    st.tuples(st.sampled_from(["dequeue", "dequeue", "peek", "clear", "len",
                               "is_empty"])),
), max_size=80)


class TestLazyQueueEqualsEagerQueue:
    @given(st.integers(min_value=1, max_value=6000),
           st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
           queue_operations)
    @settings(max_examples=300, deadline=None)
    def test_same_answers_same_stats_one_deque_per_burst(
            self, capacity_bytes, capacity_packets, operations):
        queue = DropTailQueue(capacity_bytes, capacity_packets)
        model = _EagerQueue(capacity_bytes, capacity_packets)
        source = IPAddress.parse("10.0.0.1")
        destination = IPAddress.parse("10.0.1.1")
        assert not isinstance(queue._queue, deque)
        allocated = None  # the deque in use since the last clear()
        for kind, *args in operations:
            if args:
                packet = Packet.data(source, destination, size=args[0])
                assert getattr(queue, kind)(packet) == \
                    getattr(model, kind)(packet)
            elif kind == "len":
                assert len(queue) == len(model.queue)
            elif kind == "is_empty":
                assert queue.is_empty == (not model.queue)
            elif kind == "clear":
                assert queue.clear() == model.clear()
                allocated = None
            else:
                assert getattr(queue, kind)() is getattr(model, kind)()
            assert queue.stats == model.stats
            assert queue.bytes_queued == model.bytes
            assert list(queue._queue) == list(model.queue)
            if allocated is None:
                # Nothing accepted since construction or the last clear().
                if isinstance(queue._queue, deque):
                    allocated = queue._queue
            else:
                # Drained to empty and refilled, it is still the same deque.
                assert queue._queue is allocated


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.call_at(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotone_across_partial_runs(self, delays):
        sim = Simulator()
        for delay in delays:
            sim.call_at(delay, lambda: None)
        observed = []
        horizon = max(delays)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            sim.run(until=horizon * fraction)
            observed.append(sim.now)
        assert observed == sorted(observed)


class _Sink:
    """A link end that only counts what reaches it."""

    def __init__(self, name):
        self.name = name
        self.packets = 0

    def receive_packet(self, packet, link):
        self.packets += 1

    def receive_train(self, train, link):
        self.packets += train.count


#: Exactly representable, so nominal times computed as ``start + i * GAP``
#: and as a filter's ``now + (blocked - 1) * interval`` agree to the bit.
_GAP = 2.0 ** -7
_START = 1.0

router_stages = st.fixed_dictionaries({
    "n": st.integers(min_value=1, max_value=12),
    # None: no policy on the in-link; otherwise (enforce, source is legitimate)
    "ingress": st.one_of(st.none(), st.tuples(st.booleans(), st.booleans())),
    # None: no filter; otherwise the filter outlives this many packets of the
    # train (0: lapsed before it arrives; >= n: outlives all of it)
    "filter_covers": st.one_of(st.none(), st.integers(min_value=0, max_value=14)),
    "shadowed": st.booleans(),
    "disconnected": st.sampled_from([None, "in", "out"]),
    "ttl": st.sampled_from([1, 64]),
    "routed": st.booleans(),
})


def _run_router_stages(stages, as_train):
    """Inject ``n`` copies of one packet into a configured BorderRouter —
    as one train, or as lone packets at the train's nominal times — and
    return every counter the pipeline keeps."""
    sim = Simulator()
    router = BorderRouter(sim, "r", "10.0.2.1")
    upstream, downstream = _Sink("up"), _Sink("down")
    link_in = Link(sim, upstream, router, bandwidth_bps=1e9, delay=0.001)
    link_out = Link(sim, router, downstream, bandwidth_bps=1e9, delay=0.001)
    if as_train:
        link_out.enable_train_mode()
    if stages["routed"]:
        router.routing.add_route("10.0.1.1/32", link_out)
    src = "10.0.0.1"
    if stages["ingress"] is not None:
        enforce, legitimate = stages["ingress"]
        router.ingress.enforce = enforce
        router.ingress.allow(link_in, "10.0.0.0/24" if legitimate else "10.9.0.0/24")
    entry = None
    if stages["filter_covers"] is not None:
        entry = router.filter_table.install(
            FlowLabel.between(src, "10.0.1.1"),
            _START + (stages["filter_covers"] - 0.5) * _GAP)
    shadow = ShadowCache(clock=lambda: sim.now)
    shadowed = shadow.log(FlowLabel.between(src, "10.0.1.1"), 60.0) \
        if stages["shadowed"] else None
    router.add_forward_observer(
        lambda packet, link, train=None: shadow.match_packet(
            packet, 1 if train is None else train.count))
    if stages["disconnected"] is not None:
        router.disconnect_link(link_in if stages["disconnected"] == "in" else link_out)

    template = Packet.data(IPAddress.parse(src), IPAddress.parse("10.0.1.1"), size=500)
    template.ttl = stages["ttl"]
    n = stages["n"]
    if as_train:
        sim.fire_at(_START, router.receive_train,
                    PacketTrain(template, n, _GAP), link_in)
    else:
        for i in range(n):
            sim.fire_at(_START + i * _GAP, router.receive_packet,
                        template.clone(), link_in)
    sim.run()
    table = router.filter_table
    return {
        "node": router.stats,
        "ingress": router.ingress.stats,
        "table": (table.packets_checked, table.packets_blocked),
        "entry": entry and (entry.packets_blocked, entry.bytes_blocked,
                            entry.last_blocked_at),
        "reappearances": shadowed and shadowed.reappearances,
        "forwarded_to_sink": downstream.packets,
    }


class TestOneRouterPipeline:
    """The data path is written once over "count copies of this packet":
    whatever the stages decide, a train of n must leave the counters n lone
    packets at its nominal times leave."""

    @given(router_stages)
    @settings(max_examples=300, deadline=None)
    def test_train_of_n_counts_as_n_lone_packets(self, stages):
        assert _run_router_stages(stages, as_train=True) == \
            _run_router_stages(stages, as_train=False)


# ----------------------------------------------------------------------
# A train costs O(1) at both ends (PR 20).  Each oracle below keeps the
# per-packet code its subject replaced as a test-local model; the subject
# must agree with it to the last bit, not to a tolerance.
# ----------------------------------------------------------------------
class _SteppedSim:
    """What a TrainProcess uses of its simulator, stepped by hand: the clock,
    ``schedule_fire`` for its first wakeup and the heap every later wakeup
    is pushed onto."""

    def __init__(self, now):
        self._now = now
        self._heap = []
        self._seq = itertools.count()

    def schedule_fire(self, delay, callback, *args):
        self._heap.append((self._now + delay, next(self._seq), callback, args))

    def pop(self):
        """Take the one pending wakeup and move the clock to it."""
        assert len(self._heap) == 1, self._heap
        self._now, _, wakeup, args = self._heap.pop()
        return wakeup, args

    @property
    def pending_time(self):
        assert len(self._heap) <= 1, self._heap
        return self._heap[0][0] if self._heap else None


def _looped_trains(now, interval, max_train, horizon, limit, max_span,
                   max_ticks, wakeups):
    """``(ticks emitted, next wake-up or None once stopped)`` per wake-up, as
    ``TrainProcess._wakeup`` produced them while it still walked the
    ``when += interval`` recurrence one Python iteration per tick."""
    ticks, trains = 0, []
    for _ in range(wakeups):
        cap = max_train
        if max_ticks is not None and max_ticks - ticks < cap:
            cap = max_ticks - ticks
        span_limit = now + max_span if max_span is not None else None
        count, when = 0, now
        while count < cap:
            if horizon is not None and when > horizon:
                break
            if limit is not None and when >= limit:
                break
            if span_limit is not None and when > span_limit:
                break
            count += 1
            when += interval
        ticks += count
        stopped = (count == 0
                   or (max_ticks is not None and ticks >= max_ticks)
                   or (horizon is not None and when > horizon))
        trains.append((count, None if stopped else when))
        if stopped:
            break
        now = when
    return trains


@st.composite
def train_schedules(draw):
    now = draw(st.floats(min_value=0.0, max_value=1e6))
    interval = draw(st.one_of(
        st.floats(min_value=1e-6, max_value=10.0),
        # so small next to ``now`` that ``when + interval == when``
        st.just(5e-324), st.just(now * 2.0 ** -60 or 1e-300),
        # an exact binary fraction: ticks land on the bounds themselves
        st.sampled_from([2.0 ** -7, 0.25])))
    max_train = draw(st.integers(min_value=1, max_value=40))
    # Bounds a few ticks away — at, between and beyond the train's ticks.
    ticks_away = st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0.0, max_value=100.0))

    def span():
        ticks = draw(ticks_away)
        return None if ticks is None else ticks * interval

    horizon, limit, max_span = span(), span(), span()
    return dict(now=now, interval=interval, max_train=max_train,
                horizon=None if horizon is None else now + horizon,
                limit=None if limit is None else now + limit,
                max_span=max_span or None,  # a span is positive
                max_ticks=draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=120))))


class TestTrainSizing:
    @given(train_schedules())
    @example(dict(now=1.0, interval=2.0 ** -7, max_train=8,
                  horizon=1.0 + 5 * 2.0 ** -7, limit=1.0 + 5 * 2.0 ** -7,
                  max_span=3 * 2.0 ** -7, max_ticks=None))
    @example(dict(now=1e6, interval=5e-324, max_train=4, horizon=1e6,
                  limit=None, max_span=1.0, max_ticks=10))
    @settings(max_examples=400, deadline=None)
    def test_counts_and_wakeups_equal_the_per_tick_loop(self, drawn):
        sim = _SteppedSim(drawn["now"])
        emitted = []
        process = TrainProcess(sim, drawn["interval"], emitted.append,
                               max_train=drawn["max_train"],
                               max_span=drawn["max_span"],
                               max_ticks=drawn["max_ticks"],
                               horizon=drawn["horizon"])
        process.limit_until = drawn["limit"]
        process.start()
        trains = []
        for _ in range(6):
            wakeup, args = sim.pop()
            before = len(emitted)
            wakeup(*args)
            count = emitted[-1] if len(emitted) > before else 0
            trains.append((count, sim.pending_time))
            if sim.pending_time is None:
                assert not process.running
                break
        assert trains == _looped_trains(
            drawn["now"], drawn["interval"], drawn["max_train"],
            drawn["horizon"], drawn["limit"], drawn["max_span"],
            drawn["max_ticks"], wakeups=6)
        assert process.ticks == sum(count for count, _ in trains)


_BUCKET = 0.1

delivered = st.tuples(
    # On bucket edges, between them, and late enough for rounding to show.
    st.one_of(st.integers(min_value=0, max_value=60).map(lambda k: k * _BUCKET),
              st.floats(min_value=0.0, max_value=6.0),
              st.floats(min_value=1e5, max_value=1e5 + 6.0)),
    # interval: a burst (0), whole fractions of a bucket, anything else
    st.one_of(st.just(0.0),
              st.integers(min_value=1, max_value=8).map(lambda k: _BUCKET / k),
              st.floats(min_value=1e-5, max_value=0.05)),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=300)),
    st.integers(min_value=1, max_value=1500))


class TestBucketStore:
    @given(st.lists(delivered, min_size=1, max_size=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_windows_and_series_equal_eager_spreading(self, rows, data):
        store, eager = BucketStore(_BUCKET), {}
        for start, interval, count, size in rows:
            store.add(start, interval, count, size)
            _spread_train_buckets(eager, start, interval, count, size, _BUCKET)
        # Windows that cut trains at either edge: on buckets that hold
        # something, one beside them, and anywhere.
        held = sorted(eager)
        edges = st.one_of(
            st.sampled_from(held),
            st.sampled_from(held).map(lambda bucket: bucket + 1),
            st.sampled_from(held).map(lambda bucket: bucket - 1),
            st.integers(min_value=0, max_value=held[-1] + 2))
        for _ in range(6):
            first, last = sorted((data.draw(edges), data.draw(edges)))
            assert store.total(first, last) == sum(
                size for bucket, size in eager.items()
                if first <= bucket <= last), (first, last)
        assert store.total(held[0], held[-1]) == sum(eager.values())
        assert store.folded() == eager
        # Folded, the store answers from the buckets alone — equally.
        first, last = sorted((data.draw(edges), data.draw(edges)))
        assert store.total(first, last) == sum(
            size for bucket, size in eager.items() if first <= bucket <= last)


    def test_a_recurrence_that_drifts_over_a_bucket_edge_is_walked(self):
        """Summing ``interval`` 43 times lands the last packet one bucket
        later than ``start + 43 * interval`` does: the closed form may say
        which trains need walking, never where a packet falls."""
        for start, interval, count in [(0.0, 0.1, 44), (0.0, 0.1 / 3, 37),
                                       (0.0, 0.02, 31), (0.1, 0.05, 191)]:
            store, eager = BucketStore(_BUCKET), {}
            store.add(start, interval, count, 100)
            _spread_train_buckets(eager, start, interval, count, 100, _BUCKET)
            drifted = max(eager)
            assert drifted == int((start + (count - 1) * interval) / _BUCKET) + 1
            for first in (0, 1, drifted - 1, drifted):
                for last in range(first, drifted + 2):
                    assert store.total(first, last) == sum(
                        size for bucket, size in eager.items()
                        if first <= bucket <= last), (start, first, last)


class _ScannedShadowCache:
    """The shadow cache as it was before it had an index: every operation a
    scan of the entries in insertion order.  Entries are ``[label,
    expires_at, reappearances, serial]`` lists."""

    def __init__(self, capacity, clock):
        self.capacity, self.clock = capacity, clock
        self.entries = []
        self.total_logged = self.total_expired = 0
        self.insert_failures = self.peak_occupancy = 0

    def purge(self):
        now = self.clock()
        live = [entry for entry in self.entries if now < entry[1]]
        self.total_expired += len(self.entries) - len(live)
        self.entries = live

    def __len__(self):
        self.purge()
        return len(self.entries)

    def find(self, label):
        now = self.clock()
        for entry in self.entries:
            if now < entry[1] and entry[0] == label:
                return entry
        return None

    def log(self, label, duration, serial):
        now = self.clock()
        self.purge()
        existing = self.find(label)
        if existing is not None:
            existing[1] = max(existing[1], now + duration)
            return existing
        if self.capacity is not None and len(self.entries) >= self.capacity:
            self.insert_failures += 1
            return None
        entry = [label, now + duration, 0, serial]
        self.entries.append(entry)
        self.total_logged += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))
        return entry

    def match_packet(self, packet, count):
        now = self.clock()
        for entry in self.entries:
            if now < entry[1] and entry[0].matches(packet):
                entry[2] += count
                return entry
        return None

    def remove(self, serial):
        kept = [entry for entry in self.entries if entry[3] != serial]
        removed = len(kept) != len(self.entries)
        self.entries = kept
        return removed


_SHADOW_SRCS = [IPAddress.parse(f"10.0.0.{host}") for host in (1, 2, 3)]
_SHADOW_DSTS = [IPAddress.parse(f"10.0.1.{host}") for host in (1, 2)]
#: Exact, /32-prefix (exact-indexed, unequal to the plain-address label on
#: the same pair), port-constrained, shorter-prefix and wildcard labels over
#: six flows, so hash hits, residual hits and their ordering all collide.
_SHADOW_LABELS = (
    [FlowLabel.between(src, dst) for src in _SHADOW_SRCS for dst in _SHADOW_DSTS]
    + [FlowLabel.between(Prefix(src, 32), Prefix(_SHADOW_DSTS[0], 32))
       for src in _SHADOW_SRCS]
    + [FlowLabel.between(_SHADOW_SRCS[0], _SHADOW_DSTS[0], dst_port=53),
       FlowLabel.between("10.0.0.0/30", _SHADOW_DSTS[0]),
       FlowLabel.between("10.0.0.2/31", None),
       FlowLabel.from_source(_SHADOW_SRCS[1]),
       FlowLabel.to_destination(_SHADOW_DSTS[1])])

shadow_operations = st.lists(st.one_of(
    st.tuples(st.just("log"), st.sampled_from(_SHADOW_LABELS),
              st.sampled_from([0.5, 1.0, 2.0, 3.5])),
    st.tuples(st.just("match"), st.sampled_from(_SHADOW_SRCS),
              st.sampled_from(_SHADOW_DSTS), st.sampled_from([53, 80]),
              st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("find"), st.sampled_from(_SHADOW_LABELS)),
    st.tuples(st.just("advance"), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("len")),
    st.tuples(st.just("clear")),
), max_size=60)


class TestShadowCacheIndex:
    @given(st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
           shadow_operations)
    @settings(max_examples=400, deadline=None)
    def test_every_answer_equals_the_insertion_ordered_scan(self, capacity,
                                                            operations):
        clock = {"now": 0.0}
        cache = ShadowCache(capacity=capacity, clock=lambda: clock["now"])
        model = _ScannedShadowCache(capacity, lambda: clock["now"])
        logged = {}  # serial -> the cache's entry

        def same(entry, modelled):
            if modelled is None:
                assert entry is None
            else:
                assert entry is logged[modelled[3]]
                assert (entry.label, entry.expires_at, entry.reappearances) \
                    == tuple(modelled[:3])

        for serial, operation in enumerate(operations):
            kind, *args = operation
            if kind == "log":
                entry = cache.log(*args)
                modelled = model.log(*args, serial)
                if modelled is not None:
                    logged.setdefault(modelled[3], entry)
                same(entry, modelled)
            elif kind == "match":
                src, dst, port, count = args
                packet = Packet.data(src, dst, dst_port=port)
                same(cache.match_packet(packet, count),
                     model.match_packet(packet, count))
            elif kind == "find":
                same(cache.find(*args), model.find(*args))
            elif kind == "advance":
                clock["now"] += args[0]
            elif kind == "remove":
                if args[0] in logged:
                    assert cache.remove(logged[args[0]]) == model.remove(args[0])
            elif kind == "len":
                assert len(cache) == len(model)
                # Both have swept now, so both have counted every expiry.
                assert cache.total_expired == model.total_expired
            else:
                cache.clear()
                model.entries = []
            assert (cache.total_logged, cache.insert_failures,
                    cache.peak_occupancy) == (
                model.total_logged, model.insert_failures, model.peak_occupancy)
        assert [entry.label for entry in cache.entries()] == \
            [entry[0] for entry in model.entries if clock["now"] < entry[1]]
        assert len(cache) == len(model)
        assert cache.total_expired == model.total_expired


class _EagerStream:
    """The stream a fork used to return: seed and name derived at the fork
    with :func:`stable_seed`, and a generator built there too."""

    def __init__(self, seed, name):
        self.seed, self.name, self.children = seed, name, 0
        self.rng = random.Random(seed)

    def fork(self, name):
        self.children += 1
        return _EagerStream(stable_seed(self.seed, name, self.children),
                            f"{self.name}/{name}")


stream_names = st.sampled_from(["handshake", "t1_3", "st_12", "zombies-0",
                                "poisson-1", "a/b", ""])

fork_trees = st.lists(st.one_of(
    st.tuples(st.just("fork"), st.integers(0, 30), stream_names),
    st.tuples(st.just("reserve"), st.integers(0, 30),
              st.lists(stream_names, min_size=1, max_size=4),
              st.randoms(use_true_random=False)),
    st.tuples(st.just("draw"), st.integers(0, 30)),
    st.tuples(st.just("read"), st.integers(0, 30)),
), max_size=40)


class TestLazySeedsEqualEagerSeeds:
    @given(st.integers(min_value=0, max_value=(1 << 31) - 1), fork_trees)
    @settings(max_examples=200, deadline=None)
    def test_every_stream_of_a_fork_tree_seeds_names_and_draws_alike(
            self, seed, operations):
        """Forks, reserved forks taken in any order, draws and reads,
        interleaved over a random tree: every lazy stream's seed, name and
        draws equal the eager model's."""
        streams = [(SeededRandom(seed, name="root"),
                    _EagerStream(seed, "root"))]
        for kind, at, *args in operations:
            lazy, eager = streams[at % len(streams)]
            if kind == "fork":
                streams.append((lazy.fork(args[0]), eager.fork(args[0])))
            elif kind == "reserve":
                names, order = args
                first = lazy.reserve_forks(len(names))
                eagers = [eager.fork(name) for name in names]
                taken = list(range(len(names)))
                order.shuffle(taken)
                for k in taken:
                    streams.append((lazy.forked(names[k], first + k),
                                    eagers[k]))
            elif kind == "draw":
                assert lazy.random() == eager.rng.random()
            else:
                assert (lazy.seed, lazy.name) == (eager.seed, eager.name)
        for lazy, eager in streams:
            assert lazy.nonce() == eager.rng.getrandbits(64)
            assert (lazy.seed, lazy.name) == (eager.seed, eager.name)
            # the parent's next fork continues where the eager one does
            assert lazy.fork("next").seed == eager.fork("next").seed


class _Shade(str, enum.Enum):
    PLAIN = "plain"
    ESCAPED = "tab\there \"quoted\" caf\u00e9 \U0001f600"


class _Level(enum.IntEnum):
    LOW = -3
    HUGE = 1 << 70


class _Int(int):
    def __repr__(self):
        return "not this"


class _Float(float):
    def __repr__(self):
        return "not this"


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_texts = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028'
                                     '\ud7ff\ue000\uffff\U0001f600')))
_ints = st.one_of(st.integers(), st.integers(min_value=-(1 << 200),
                                             max_value=1 << 200))
_floats = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e-320, 1e300]))
_json_leaves = st.one_of(
    st.none(), st.booleans(), _texts, _ints, _floats,
    st.sampled_from([*_Shade, *_Level]),
    _texts.map(_Str), _ints.map(_Int), _floats.map(_Float))
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(_List),
        st.dictionaries(_texts, children, max_size=5),
        st.dictionaries(_texts.map(_Str), children, max_size=3).map(_Dict),
        st.dictionaries(_ints, children, max_size=4),
        st.dictionaries(_floats, children, max_size=4),
        st.dictionaries(st.sampled_from([True, False, None]), children,
                        max_size=1),
        st.dictionaries(st.sampled_from([*_Shade]), children, max_size=2),
        st.dictionaries(st.sampled_from([*_Level]), children, max_size=2)),
    max_leaves=30)


def _stdlib_document(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _sub_value_paths(value, path=()):
    """The path (keys and indices) to ``value`` and to every value in it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _sub_value_paths(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _sub_value_paths(item, path + (index,))


def _splice_encoded(value, path):
    """A copy of ``value`` with the value at ``path`` replaced by its
    pre-encoded text."""
    if not path:
        return EncodedJSON(document_json(value))
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _splice_encoded(value[path[0]], path[1:])
    return copy


class TestDocumentJsonProperties:
    """``document_json`` writes every document stdlib's sorted, indented
    encoder would, byte for byte, and refuses what it refuses."""

    @given(_json_values)
    @settings(max_examples=300, deadline=None)
    def test_text_equals_stdlib(self, value):
        assert document_json(value) == _stdlib_document(value)

    @given(_json_values, st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_pre_encoded_sub_value_splices_to_the_same_text(self, value,
                                                              data):
        """Any value, at any depth, replaced by its own ``document_json``
        text encodes to the original's bytes: a sweep document splices
        each cell's cached result text this way."""
        path = data.draw(st.sampled_from(list(_sub_value_paths(value))))
        assert document_json(_splice_encoded(value, path)) == \
            document_json(value)

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), {(1, 2): 3}, [{"a": [1, {"b": frozenset()}]}],
        {"a": 1, 2: "b"}, {b"bytes": 1}, 1j,
    ], ids=["set", "object", "tuple-key", "nested-frozenset",
            "mixed-keys", "bytes-key", "complex"])
    def test_anything_else_raises_stdlibs_type_error(self, value):
        with pytest.raises(TypeError) as stdlib:
            _stdlib_document(value)
        with pytest.raises(TypeError, match=f"^{re.escape(str(stdlib.value))}$"):
            document_json(value)
