"""Set-up work gate: a build is long-lived state, so nobody re-walks it.

Clock-free, like the sweep and train work gates next door — counts, never
wall-clock.  Three things an experiment's set-up must not do again:

* **collect while it builds** — wiring a hierarchy allocates state that
  lives to the end of the run and no garbage, so a collection during the
  build walks a heap that only grows and frees nothing.  With a
  ``gc.callbacks`` counter around ``prepare`` on a 1,000-AS hierarchy the
  parent of the PR that added this gate made 109 collections (99 / 9 / 1
  by generation; on the 5,000-AS ``hier_churn`` 506, four of them full);
* **pile dead sweep cells into the oldest generation** — promoting every
  build to the permanent generation would (measured: +51 % peak RSS on the
  200-cell sweep), so only a build that outgrew ``threshold0 *
  threshold1`` (7,000 objects; a figure-1 cell is under a thousand) is
  promoted, and whoever runs it hands it back;
  what is handed back was never counted towards the collector's trigger
  for a full pass, so the next build starts with the pass it is owed
  (without it six 2,000-AS cells end at 2.6 times the tracked heap of two);
* **build state for an element nobody uses** — a link's two pipes, a
  gateway's agent and a forked stream's seed are built on first use
  (``net/link.py``, ``core/deployment.py``, ``sim/randomness.py``), so
  preparing the 5,000-AS ``hier_churn`` cell builds none of them, and its
  run builds the pipes of the 84 of 7,042 links that carry a packet and the
  agents of the 7 routers a control packet reaches.  Reading a link's
  counters or queue builds nothing either: the bench reads every link
  direction after every run.  Nor does observing a run: a tap on a link
  without pipes waits for them.  And a pipe that does exist holds no
  ``deque`` until it queues a packet (``net/queues.py``).

Nor does an idle router hold state of its own: its routing rows, next
hops and memo, its ingress policy and counters, its filter table's entries
and its hook lists start as one shared empty constant per kind
(``router/nodes.py::SHARED_UNTIL_WRITTEN``) and become its own on its first
write, and its routing-miss and dormant-gateway hooks are one callable
shared by every router.  On the 5,000-AS ``hier_churn`` cell at a 1 s
horizon, 23 routers own rows, 8 an ingress policy and 7 a filter table.

Pipes and deques are found by walking the links, not ``gc.get_objects()``:
frozen objects are invisible to the latter.

Nor does a process import code it does not run: the package ``__init__``s
import nothing their importers do not all need, and a registry entry
imports its implementation when a spec names it.  A fresh interpreter that
prepares, runs and serialises a figure-1 AITF cell loads exactly the 51
``repro`` modules pinned below (the parent of the PR that added this gate
loaded 72: every sweep, observability, baseline, attack, topology and
fault module), and ``repro --json run`` adds only the CLI and its logger.

And one thing neither phase may do: **search or write routes for routers
that never look a destination up** — on every topology a router holds a
destination anchor's rows once it has asked for them
(``topology/dynamic.py``), so a build runs no Dijkstra and writes no router
row, and the rows a cell ends up holding follow the routers on its
traffic's paths, not the size of the graph around them.  On the 200-AS
``fleet_train`` cell the parent of the PR that made flat routes lazy ran
200 Dijkstras and wrote 264,098 rows at build; a 1 s run now solves the 15
anchors its traffic asks for, on 176 askers, and holds 2,262 rows (the
flat gates below; the two after them hold the same on the ``hier_churn``
hierarchy).
"""

import gc
import glob
import json
import os
import subprocess
import sys
from collections import Counter, deque
from functools import partial

import pytest

from repro.experiments import (ExperimentRunner, ExperimentSpec,
                               default_flood_spec)
from repro.experiments.runner import BuildCollector
from repro.net.link import Link
from repro.router.filter_table import _NO_ENTRIES as SHARED_ENTRIES
from repro.router.nodes import SHARED_UNTIL_WRITTEN, private_containers
from repro.router.routing import RoutingTable
from repro.sim import randomness
from repro.topology import base, dynamic
from repro.topology.dynamic import edge_key
from repro.topology.powerlaw import build_powerlaw_internet
from tests.test_hierarchy import train_spec

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "workloads")
HIER_CHURN = os.path.join(WORKLOADS, "hier_churn.json")
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: The ``repro`` modules a fresh process loads to prepare, run and
#: serialise a figure-1 AITF cell, by package.
FIGURE1_CELL_MODULES = frozenset({
    "repro",
    "repro.analysis", "repro.analysis.metrics", "repro.analysis.report",
    "repro.attacks", "repro.attacks.base", "repro.attacks.flood",
    "repro.attacks.legitimate",
    "repro.contracts", "repro.contracts.contract",
    "repro.core", "repro.core.config", "repro.core.deployment",
    "repro.core.detection", "repro.core.directory", "repro.core.events",
    "repro.core.gateway_agent",
    "repro.core.host_agent", "repro.core.messages",
    "repro.experiments", "repro.experiments.backends",
    "repro.experiments.collectors", "repro.experiments.registry",
    "repro.experiments.runner", "repro.experiments.spec",
    "repro.experiments.topologies", "repro.experiments.workloads",
    "repro.net", "repro.net.address", "repro.net.flowlabel",
    "repro.net.link", "repro.net.packet", "repro.net.queues",
    "repro.net.train",
    "repro.router", "repro.router.filter_table", "repro.router.ingress",
    "repro.router.label_index", "repro.router.nodes",
    "repro.router.policer", "repro.router.routing",
    "repro.router.shadow_cache",
    "repro.sim", "repro.sim.engine", "repro.sim.process",
    "repro.sim.randomness",
    "repro.topology", "repro.topology.adjacency", "repro.topology.base",
    "repro.topology.dynamic", "repro.topology.figure1",
})

#: ``repro --json run --spec`` on a figure-1 AITF spec: the same cell,
#: plus the CLI and the logger it configures (no sweep executor, cluster
#: queue, trace store, flight recorder, sweep tables or red team).
CLI_RUN_MODULES = FIGURE1_CELL_MODULES | {
    "repro.cli", "repro.obs", "repro.obs.logsetup"}

_PRINT_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))")


def modules_loaded_by(script):
    """The ``repro`` modules a fresh interpreter has loaded after running
    ``script`` (which must import ``json`` and ``sys``)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, "-c", f"{script}\n{_PRINT_MODULES}"], cwd=ROOT,
        env=env, capture_output=True, text=True, check=True)
    return frozenset(json.loads(completed.stdout.splitlines()[-1]))


def assert_modules(loaded, pinned):
    assert loaded == pinned, {"extra": sorted(loaded - pinned),
                              "missing": sorted(pinned - loaded)}


class CollectionCounter:
    """Collections per generation while installed in ``gc.callbacks``."""

    def __init__(self):
        self.by_generation = [0, 0, 0]

    def __call__(self, phase, info):
        if phase == "start":
            self.by_generation[info["generation"]] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def pipe_queues(execution):
    for link in execution.handle.topology.links:
        for end in (link.a, link.b):
            yield link.queue_toward(end)


def links_with_pipes(links):
    return {link for link in links if link._pipe_to_b is not None}


def test_prepare_runs_outside_the_collector_and_run_hands_the_heap_back():
    spec = train_spec(1000)
    # A build that an earlier test froze and released is owed one full
    # pass, which the next build makes by design; settle it first, so the
    # count below is what a prepare that owes nothing does.
    with BuildCollector.building():
        pass
    with CollectionCounter() as counter:
        execution = ExperimentRunner().prepare(spec)
    young, middle, full = counter.by_generation
    assert full == 0
    assert young + middle <= 3, counter.by_generation
    assert gc.isenabled()
    execution.run()
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def test_sixty_sweep_cells_leave_nothing_frozen_and_the_heap_flat():
    runner = ExperimentRunner()
    spec = default_flood_spec(duration=0.5, attack_pps=200.0,
                              legit_pps=100.0).with_overrides(
                                  {"engine.mode": "train"})
    tracked = {}
    for cell in range(1, 61):
        runner.run(spec.with_overrides({"seed": cell}))
        assert gc.get_freeze_count() == 0 and gc.isenabled(), cell
        if cell in (20, 60):
            tracked[cell] = len(gc.get_objects())
    assert abs(tracked[60] - tracked[20]) <= 0.10 * tracked[20], tracked


def test_a_sweep_of_frozen_size_cells_reclaims_each_cell_at_the_next_build():
    runner = ExperimentRunner()
    tracked = {}
    for cell in range(1, 7):
        runner.run(train_spec(2000, seed=cell))
        assert gc.get_freeze_count() == 0 and gc.isenabled(), cell
        if cell in (2, 6):
            tracked[cell] = len(gc.get_objects())
    assert abs(tracked[6] - tracked[2]) <= 0.10 * tracked[2], tracked


def test_a_queue_that_never_saw_a_packet_holds_no_deque():
    """Walking every queue reads them and builds nothing, before the run
    and after it."""
    execution = ExperimentRunner().prepare(train_spec(1000))
    links = execution.handle.topology.links
    queues = list(pipe_queues(execution))
    assert len(queues) > 2000
    assert not any(isinstance(queue._queue, deque) for queue in queues)
    assert not links_with_pipes(links)
    execution.run()
    built = links_with_pipes(links)
    queues = list(pipe_queues(execution))
    assert links_with_pipes(links) == built
    holding = [queue for queue in queues if isinstance(queue._queue, deque)]
    assert all(queue.stats.enqueued > 0 for queue in holding)
    assert len(holding) < len(queues) // 20


def test_a_hierarchy_builds_pipes_agents_and_seeds_where_they_are_used(
        monkeypatch):
    """The ``hier_churn`` cell, fault pair included: its build holds no
    pipe, builds no gateway agent and derives no forked stream's seed; its
    run builds the pipes of the links that carry a packet (84 of 7,042 when
    this gate was added) and the agents of routers a control packet reached
    (7 of 5,000).  The parent of the PR that made them lazy built all
    14,084 pipes, 5,000 agents and 10,002 seeds in ``prepare``."""
    derived = []
    derive = randomness.SeededRandom._derive
    monkeypatch.setattr(randomness.SeededRandom, "_derive",
                        lambda stream: derived.append(stream) or derive(stream))
    with open(HIER_CHURN, encoding="utf-8") as handle:
        spec = ExperimentSpec.from_dict(json.load(handle))
    execution = ExperimentRunner().prepare(spec)
    topology = execution.handle.topology
    agents = execution.backend.deployment.gateway_agents
    links = topology.links
    assert len(links) > 7000 and len(agents) == 5000
    assert not links_with_pipes(links)
    assert agents.built() == [] and derived == []
    execution.run()
    carrying = {link for link in links
                if any(link.stats_toward(end).packets_sent
                       for end in (link.a, link.b))}
    assert links_with_pipes(links) == carrying
    assert 0 < len(carrying) < 0.02 * len(links)
    reached = {router.name for router in topology.border_routers()
               if router.stats.packets_delivered}
    assert agents.built()
    assert {agent.name for agent in agents.built()} <= reached
    assert len(reached) < 0.01 * len(agents)


def test_observing_a_hierarchy_builds_no_link_its_run_does_not_use(
        monkeypatch):
    """A tap on a link without pipes is recorded and applied when the
    pipes are built, so the observed 1,000-AS cell builds the same 56 of
    1,500 links as the unobserved one, and its trace is the one taps on
    every link built up front record.  While a tap built the link it
    tapped, the observed cell built all 1,500."""
    def run(observe):
        extra = {"observe": {"channels": ["packet"]}} if observe else {}
        execution = ExperimentRunner().prepare(
            train_spec(1000, engine={"mode": "packet"}, **extra))
        execution.run()
        links = execution.handle.topology.links
        return execution, {link.name for link in links_with_pipes(links)}

    _, unobserved = run(observe=False)
    observed, built = run(observe=True)
    assert built == unobserved
    assert 0 < len(built) < 0.1 * len(observed.handle.topology.links)

    tap = Link.tap

    def build_then_tap(link, *wrappers):
        link.pipe_toward(link.b)
        tap(link, *wrappers)

    monkeypatch.setattr(Link, "tap", build_then_tap)
    eager, built_eagerly = run(observe=True)
    assert len(built_eagerly) == len(eager.handle.topology.links)

    def store(execution):
        recorder = execution.observer.recorder
        return list(recorder.times), list(recorder.ids), recorder.bodies

    assert len(observed.observer.recorder) > 10_000
    assert store(observed) == store(eager)


def test_a_figure1_cell_imports_only_the_code_it_runs():
    loaded = modules_loaded_by(
        "import json, sys\n"
        "from repro import ExperimentRunner, default_flood_spec\n"
        "result = ExperimentRunner().run(default_flood_spec(duration=1.0))\n"
        "json.dumps(result.to_dict())")
    assert_modules(loaded, FIGURE1_CELL_MODULES)


def test_repro_run_imports_no_sweep_trace_or_report_code():
    loaded = modules_loaded_by(
        "import json, sys\n"
        "from repro.cli import main\n"
        "main(['--json', 'run', '--spec', 'examples/specs/flood_aitf.json',"
        " '--duration', '0.2'])")
    assert_modules(loaded, CLI_RUN_MODULES)


def written_containers(node):
    """The containers of ``node`` the run wrote to, judged by what they
    hold or count (the 1 s horizon ends before the fault pair, so no memo
    was emptied by a reroute)."""
    routing = node.routing
    written = {"routing._rows": routing.row_count(),
               "routing._next_hops": routing._next_hops,
               "routing._cache": routing._cache,
               "_receive_callbacks": node._receive_callbacks}
    if hasattr(node, "ingress"):
        written.update({
            "ingress._allowed": node.ingress._allowed,
            "ingress.stats": node.ingress._allowed,
            "filter_table._entries": node.filter_table.total_installed,
            "forward_observers": node.forward_observers,
            "local_prefixes": node.local_prefixes})
    return [path for path, _ in SHARED_UNTIL_WRITTEN if written.get(path)]


def test_idle_routers_share_their_containers_and_hooks():
    """The ``hier_churn`` cell at a 1 s horizon: a node owns exactly the
    containers the run wrote to (an ingress policy on the 8 host-stub
    routers only, rows on the routers that asked), every host agent's
    outbound filter table stays shared unless it installed a filter, and no
    router holds a hook object of its own."""
    with open(HIER_CHURN, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 1.0
    execution = ExperimentRunner().prepare(ExperimentSpec.from_dict(doc))
    execution.run()
    hierarchy = execution.handle.raw
    nodes = list(execution.handle.topology.nodes.values())
    routers = execution.handle.topology.border_routers()
    for node in nodes:
        assert private_containers(node) == written_containers(node), node
    owners = Counter(path for node in nodes
                     for path in private_containers(node))
    assert {router.name for router in routers
            if "ingress._allowed" in private_containers(router)} == {
        router.name for router in hierarchy.host_stub_routers}
    assert owners["ingress._allowed"] == owners["local_prefixes"] == 8
    assert 0 < owners["routing._rows"] < 0.01 * len(routers)
    assert 0 < owners["filter_table._entries"] < 0.01 * len(routers)
    deployment = execution.backend.deployment
    for agent in deployment.host_agents.values():
        table = agent.outbound_filters
        assert (table._entries is not SHARED_ENTRIES) == (
            table.total_installed > 0)

    assert all(router.routing.miss_handler is None for router in routers)
    assert len({id(router.routing.miss_asker) for router in routers}) == 1
    woken = {agent.name for agent in deployment.gateway_agents.built()}
    dormant = [router for router in routers if router.name not in woken]
    assert len({id(router.control_handler) for router in dormant}) == 1
    assert not any(isinstance(hook, partial) for node in nodes
                   for hook in (node.control_handler, node.routing.miss_asker))


def example_specs():
    """Every committed ``examples/specs/*.json`` experiment spec, by name."""
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), os.pardir, "examples", "specs",
            "*.json"))):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("schema") == "experiment_spec/v1":
            yield pytest.param(doc, id=os.path.basename(path))


@pytest.mark.parametrize("doc", example_specs())
def test_a_run_leaves_every_shared_constant_empty(doc):
    ExperimentRunner().run(ExperimentSpec.from_dict(dict(doc, duration=2.0)))
    for _, shared in SHARED_UNTIL_WRITTEN:
        assert shared == type(shared)(), shared


def counting_searches(monkeypatch):
    """The root of every Dijkstra the topology layer runs (route build,
    anchor solves, improvement tests), in call order."""
    roots = []
    for module in (base, dynamic):
        search = module.shortest_path_tree
        monkeypatch.setattr(
            module, "shortest_path_tree",
            lambda adjacency, source, *rest, _search=search:
                roots.append(source) or _search(adjacency, source, *rest))
    return roots


def rows_held(topology):
    return sum(router.routing.row_count()
               for router in topology.border_routers())


def test_a_flat_fleet_searches_and_writes_routes_for_the_askers_only(
        monkeypatch):
    """The ``fleet_train`` cell, 1 s long: its build runs no Dijkstra and
    holds no router row; its run solves each anchor it asks for once, and
    the rows held are at most each asked group on its askers (and on its
    anchor, for the access rows)."""
    with open(os.path.join(WORKLOADS, "fleet_train.json"),
              encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 1.0
    roots = counting_searches(monkeypatch)
    execution = ExperimentRunner().prepare(ExperimentSpec.from_dict(doc))
    topology = execution.handle.topology
    assert len(topology.border_routers()) == 200
    assert roots == [] and rows_held(topology) == 0
    execution.run()
    core = topology.ensure_dynamic_routing()
    assert sorted(roots) == sorted(core.tracked())
    assert len(roots) == len(set(roots)) == 15
    groups = {anchor: sum(len(core._prefixes[member])
                          for member, _ in core._groups[anchor])
              for anchor in core.tracked()}
    bound = sum(groups[anchor] * (len(core.askers.get(anchor, ())) + 1)
                for anchor in groups)
    assert 0 < rows_held(topology) <= bound < 3_000


def test_a_500_as_power_law_build_holds_no_router_row(monkeypatch):
    roots = counting_searches(monkeypatch)
    fleet = build_powerlaw_internet(autonomous_systems=500, hosts_per_leaf=10,
                                    seed=11)
    assert len(fleet.topology.border_routers()) == 500
    assert roots == [] and rows_held(fleet.topology) == 0


def hier_churn_cell(autonomous_systems, fault_link=None):
    """The bench's ``hier_churn`` cell (train mode, 60 zombies, 8 host
    stubs) on a hierarchy of another size, without its fault pair or with
    the pair moved onto ``fault_link``."""
    with open(HIER_CHURN, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["topology"]["params"]["autonomous_systems"] = autonomous_systems
    faults = doc.pop("faults")
    if fault_link is not None:
        doc["faults"] = [dict(fault, link=list(fault_link)) for fault in faults]
    return ExperimentSpec.from_dict(doc)


class RoutingWork:
    """What a finished cell's control plane holds, and what it cost."""

    def __init__(self, execution, installs):
        self.policy = policy = execution.handle.topology.policy
        self.installs = installs
        held = [router.routing.row_count()
                for router in execution.handle.topology.border_routers()]
        self.rows = sum(held)
        self.routers_holding = len(held) - held.count(0)
        #: (router, anchor) pairs with rows: every asker, and each anchor
        #: for its own access rows.
        self.holders = len(policy.tracked()) + sum(
            len(asked) for asked in policy.askers.values())
        self.widest = max(
            sum(len(policy._prefixes[member])
                for member, _ in policy._groups[anchor])
            for anchor in policy.tracked())


def run_counting_installs(spec, monkeypatch):
    """Run ``spec``, counting the rows offered to routing tables: one per
    ``RoutingTable.install`` (an anchor's access rows) and one per key of
    a ``RoutingTable.install_rows`` (a holder's group)."""
    installs = []
    install, install_rows = RoutingTable.install, RoutingTable.install_rows
    with monkeypatch.context() as patch:
        patch.setattr(
            RoutingTable, "install",
            lambda self, prefix, link, metric=0:
                installs.append(1) or install(self, prefix, link, metric))
        patch.setattr(
            RoutingTable, "install_rows",
            lambda self, keys, records:
                installs.append(len(keys)) or install_rows(self, keys, records))
        execution = ExperimentRunner().prepare(spec)
        execution.run()
    return execution, RoutingWork(execution, sum(installs))


def test_rows_held_follow_the_askers_not_the_size_of_the_hierarchy(
        monkeypatch):
    """The fault-free ``hier_churn`` cell at 500 and at 2,000 ASes ends
    holding about the same rows, written by about the same number of
    ``RoutingTable.install`` calls (156 and 170 of each when this gate was
    added; the parent, which wrote an anchor's rows on every router, held
    and installed 7,056 and 28,056 — 14 rows x N)."""
    small, large = (run_counting_installs(hier_churn_cell(size), monkeypatch)[1]
                    for size in (500, 2000))
    for work in (small, large):
        assert len(work.policy.tracked()) == 7
        assert 0 < work.rows <= work.holders * work.widest
        assert work.rows <= work.installs <= work.holders * work.widest
        assert work.routers_holding <= work.holders < 100
    for a, b in ((small.rows, large.rows), (small.installs, large.installs)):
        assert abs(a - b) < 0.25 * min(a, b), (a, b)


def test_a_fault_event_moves_rows_on_the_holders_only(monkeypatch):
    """With the fault pair on the transit link most holders route across,
    an event's ``routes_installed + routes_removed`` is bounded by the
    holders (x the widest group), whatever the hierarchy's size."""
    execution, _ = run_counting_installs(hier_churn_cell(500), monkeypatch)
    policy = execution.handle.topology.policy
    crossed = Counter()
    for anchor, asked in policy.askers.items():
        routes = policy.materialize(anchor)
        crossed.update(edge_key(name, routes[name].next_hop)
                       for name in asked if name in routes)
    transit = [(count, edge) for edge, count in crossed.items()
               if not any(end.startswith("st_") for end in edge)]
    _, link = max(transit)

    execution, work = run_counting_installs(hier_churn_cell(500, link),
                                            monkeypatch)
    down, up = execution.fault_injector.timeline
    assert (down["kind"], up["kind"]) == ("link_down", "link_up")
    assert 0 < down["anchors_recomputed"] <= up["anchors_recomputed"] == 7
    for event in (down, up):
        moved = event["routes_installed"] + event["routes_removed"]
        assert 0 < moved <= work.holders * work.widest, event
