"""Every packet the data plane touches is accounted for.

Two identities, checked at the end of a run on every node and every pipe:

* a node's ``packets_received`` (the sum of its incoming pipes'
  ``packets_delivered``) equals what it delivered, forwarded and dropped
  for each named cause — plus, on the train engine, the packets of a split
  train whose remainder is still waiting to re-enter the pipeline
  (received with the whole train, decided at its own nominal time);
* a pipe's ledger is exact: ``sent == delivered + dropped + queued + in
  flight``, where in flight are the heap entries addressed to the pipe's
  receiver over its link.

The runs cover the five defense backends on Figure 1, a packet-engine
hierarchy cell, an on-path compromised router that swallows the
verification queries it snoops, and a train-engine cell whose filters
(2 s lifetime) expire mid-train.
"""

from functools import partial
from operator import itemgetter

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec, default_flood_spec
from repro.experiments.registry import DEFENSES
from repro.router.nodes import BorderRouter

from tests.test_hierarchy import base_spec_dict

DROP_CAUSES = ("filter", "ingress", "no_route", "disconnected", "ttl",
               "suppressed")


def is_split_remainder(callback):
    """Whether a heap entry's callback re-delivers a split train's remainder:
    ``receive_packet(packet, link, count, train, False)``, five arguments,
    folded into a ``partial`` when the entry was pushed."""
    return (isinstance(callback, partial) and len(callback.args) == 5
            and callback.args[4] is False)


def pending_remainders(sim):
    """node -> packets of split trains scheduled to re-enter its pipeline."""
    pending = {}
    for _, _, callback, _, _ in sim._heap:
        if is_split_remainder(callback):
            node = callback.func.__self__
            pending[node] = pending.get(node, 0) + callback.args[2]
    return pending


def in_flight(sim, pipe):
    """Packets scheduled to arrive over ``pipe``: its receiver's delivery
    events over its link, and its pending train deliveries."""
    receiver = pipe._sink.receive_packet
    flying = 0
    for _, _, target, a, b in sim._heap:
        if b is pipe._link and target == receiver:
            flying += 1
        elif target == pipe._deliver_train:
            flying += a.count
    return flying


def unaccounted(execution):
    """The nodes and pipes whose counters do not add up, as readable rows."""
    topology = execution.handle.topology
    pending = pending_remainders(execution.sim)
    faults = []
    for node in topology.all_nodes():
        stats = node.stats
        accounted = (stats.packets_delivered + stats.packets_forwarded
                     + sum(getattr(stats, f"packets_dropped_{cause}")
                           for cause in DROP_CAUSES)
                     + pending.get(node, 0))
        if stats.packets_received != accounted:
            faults.append(f"{node.name}: received {stats.packets_received}, "
                          f"accounted {accounted}")
    for link in topology.links:
        for pipe in (link._pipe_to_b, link._pipe_to_a):
            if pipe is None:
                continue
            stats = pipe.stats
            accounted = (stats.packets_delivered + stats.packets_dropped
                         + len(pipe.queue) + in_flight(execution.sim, pipe))
            if stats.packets_sent != accounted:
                faults.append(f"{link.name} -> {pipe._node.name}: sent "
                              f"{stats.packets_sent}, accounted {accounted}")
    return faults


def run(spec):
    execution = ExperimentRunner().prepare(spec)
    execution.run()
    return execution


@pytest.mark.parametrize("backend", sorted(DEFENSES.names()))
def test_figure1_accounts_for_every_packet(backend):
    execution = run(default_flood_spec(defense=backend, duration=3.0))
    routers = [node for node in execution.handle.topology.all_nodes()
               if isinstance(node, BorderRouter)]
    assert sum(router.stats.packets_received for router in routers) > 0
    assert unaccounted(execution) == []


def test_hierarchy_cell_accounts_for_every_packet():
    execution = run(ExperimentSpec.from_dict(
        base_spec_dict("victim-stub", duration=2.0)))
    assert unaccounted(execution) == []


def test_compromised_router_accounts_for_every_packet():
    """The swallowed queries never enter the router's pipeline, whose
    receive path would count them: its hook sits on the one entry point.
    Each still arrived over its pipe, and is a named drop at the router."""
    execution = run(default_flood_spec(
        duration=4.0, defense_params={"compromised_routers": ["B_gw2"]}))
    compromised = execution.backend.compromised
    assert [c.suppress_query for c in compromised] == [True]
    assert sum(c.replies_forged for c in compromised) > 0
    assert compromised[0].router.stats.packets_dropped_suppressed > 0
    assert unaccounted(execution) == []


def test_train_cell_with_split_trains_accounts_for_every_packet():
    spec = default_flood_spec(duration=6.0, filter_timeout=2.0).with_overrides(
        {"engine.mode": "train"})
    execution = ExperimentRunner().prepare(spec)
    sim = execution.sim
    fire_at = sim.fire_at
    splits = []

    def watching_fire_at(when, callback, *args):
        fire_at(when, callback, *args)
        pushed = max(sim._heap, key=itemgetter(1))[2]
        if is_split_remainder(pushed):
            splits.append(pushed.args[2])

    sim.fire_at = watching_fire_at
    execution.run()
    assert splits, "no train was split by an expiring filter"
    assert unaccounted(execution) == []
