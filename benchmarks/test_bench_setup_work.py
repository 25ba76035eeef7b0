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
* **allocate a ``deque`` per pipe** — most pipes of a large topology never
  queue a packet (``net/queues.py``).

The deques are found by walking the links, not ``gc.get_objects()``:
frozen objects are invisible to the latter.

And one thing its run phase must not do: **write routing rows on routers
that never look a destination up** — a router holds a destination anchor's
rows once it has asked for them (``routing_policy/manager.py``), so the rows
a cell ends up holding follow the routers on its traffic's paths, not the
size of the hierarchy around them (the last two gates below).
"""

import gc
import json
import os
from collections import Counter, deque

from repro.experiments import (ExperimentRunner, ExperimentSpec,
                               default_flood_spec)
from repro.router.routing import RoutingTable
from repro.topology.dynamic import edge_key
from tests.test_hierarchy import train_spec

HIER_CHURN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                          "workloads", "hier_churn.json")


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


def test_prepare_runs_outside_the_collector_and_run_hands_the_heap_back():
    spec = train_spec(1000)
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
    execution = ExperimentRunner().prepare(train_spec(1000))
    queues = list(pipe_queues(execution))
    assert len(queues) > 2000
    assert not any(isinstance(queue._queue, deque) for queue in queues)
    execution.run()
    holding = [queue for queue in queues if isinstance(queue._queue, deque)]
    assert all(queue.stats.enqueued > 0 for queue in holding)
    assert len(holding) < len(queues) // 20


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
    installs = []
    install = RoutingTable.install
    with monkeypatch.context() as patch:
        patch.setattr(
            RoutingTable, "install",
            lambda self, prefix, link, metric=0:
                installs.append(1) or install(self, prefix, link, metric))
        execution = ExperimentRunner().prepare(spec)
        execution.run()
    return execution, RoutingWork(execution, len(installs))


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
