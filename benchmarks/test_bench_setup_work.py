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
"""

import gc
from collections import deque

from repro.experiments import ExperimentRunner, default_flood_spec
from tests.test_hierarchy import train_spec


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
