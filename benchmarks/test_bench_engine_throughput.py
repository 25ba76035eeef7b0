"""Engine regression gates: deterministic work, and one paired ratio.

Every case here is an :class:`ExperimentSpec` through
:class:`ExperimentRunner` — the one way to run an experiment — and what
gates repeats exactly on any host:

* the canonical flood at 1,500 and 5,000 pps, and a 30-AS power-law fleet
  under the full AITF stack, must generate exactly the pinned number of
  packets in exactly the pinned number of simulator events — the work the
  engine does for the spec, which a change to the fast path (one event per
  packet again, a generator that drifts) moves and the host cannot.  A
  count needs no warm-up and no best-of-N, so each spec runs once;
* the same fleet shape in train mode must stay >=3x per-packet mode — a
  ratio of two runs in this process, side by side, so host speed cancels;
  only ``execution.run()`` is timed (the build is the same on both engines);
* the Python frames a generated packet costs inside ``execution.run()`` —
  ``sys.setprofile`` call events, per layer — on the canonical flood and
  on a packet-engine hierarchy cell must stay under a pinned ceiling: the
  per-hop glue (a call per link, per address hash, per clock read) that a
  refactor can slip back into the hop chain without moving any count
  above.  The same flood with the ``packet`` and ``aitf-control`` channels
  and metrics on pins what tracing adds: one frame per traced delivery or
  block.
"""

import dataclasses
import os
import sys
import time
from collections import Counter

import pytest

from repro.analysis.report import ResultTable
from repro.experiments import (ExperimentRunner, ExperimentSpec, ObserveSpec,
                               default_flood_spec)

from benchmarks.conftest import run_once
from tests.test_hierarchy import base_spec_dict


def fleet_spec(autonomous_systems, hosts_per_leaf, zombies, rate_pps,
               duration, mode="packet"):
    """A power-law internet whose non-cooperating zombies flood one victim
    past a legitimate sender, so their gateways block for the whole run."""
    return ExperimentSpec.from_dict({
        "schema": "experiment_spec/v1",
        "name": "fleet-gate",
        "seed": 11,
        "duration": duration,
        "sample_occupancy": False,
        "topology": {"kind": "powerlaw", "params": {
            "autonomous_systems": autonomous_systems,
            "hosts_per_leaf": hosts_per_leaf, "seed": 11}},
        "defense": {"backend": "aitf",
                    "params": {"non_cooperating_attackers": True}},
        "aitf": {"filter_timeout": 30.0, "temporary_filter_timeout": 0.6},
        "engine": {"mode": mode},
        "workloads": [
            {"kind": "legitimate", "params": {"rate_pps": 200.0}},
            {"kind": "zombies", "params": {
                "count": zombies, "rate_pps": rate_pps, "start": 0.05}},
        ],
    })


def run_fleet(spec):
    """``(zombie packets, simulator events, seconds inside run())``."""
    execution = ExperimentRunner().prepare(spec)
    start = time.perf_counter()
    result = execution.run()
    wall = time.perf_counter() - start
    zombies = result.workload_stats[1]
    return zombies["packets_sent"], execution.sim.events_processed, wall


def check_pinned(title, work, pinned):
    table = ResultTable(f"Engine work: {title}", ["metric", "value"])
    table.add_row("packets", f"{work[0]:,}")
    table.add_row("events", f"{work[1]:,}")
    table.print()
    assert work == pinned, (
        f"{title}: the engine now takes {work[1]:,} events for {work[0]:,} "
        f"packets, pinned {pinned} — the spec or the fast path's event "
        "economy changed (see PERFORMANCE.md)"
    )


@pytest.mark.parametrize("attack_pps, pinned", [
    pytest.param(1500.0, (18250, 43795), id="flood"),
    pytest.param(5000.0, (51500, 117025), id="flood_heavy")])
def test_flood_work_is_pinned(benchmark, attack_pps, pinned):
    """The flood's and the legitimate sender's offered packets, and the
    simulator events they took, over 10 s of the canonical spec at seed 0."""

    def measure():
        execution = ExperimentRunner().prepare(
            default_flood_spec(attack_pps=attack_pps, duration=10.0, seed=0))
        execution.run()
        flood = execution.attack_workloads()[0].generator
        legit = execution.legit_workloads()[0].generator
        return (flood.packets_sent + flood.packets_suppressed
                + legit.packets_offered, execution.sim.events_processed)

    check_pinned(f"flood at {attack_pps:g} pps",
                 run_once(benchmark, measure), pinned)


def test_scaling_work_is_pinned(benchmark):
    """The event economy of a power-law topology under the full AITF stack
    (twelve gateways blocking for the whole run), not just the fast path."""
    spec = fleet_spec(autonomous_systems=30, hosts_per_leaf=2, zombies=12,
                      rate_pps=400.0, duration=6.0)
    packets, events, _ = run_once(benchmark, run_fleet, spec)
    check_pinned("scaling", (packets, events), (28560, 64962))


#: Train mode must beat per-packet mode by at least this factor on a fleet
#: scaled to stay fast in CI, where fixed per-run costs weigh heaviest.
REQUIRED_TRAIN_SPEEDUP = 3.0

FLEET_GATE_PARAMS = dict(autonomous_systems=100, hosts_per_leaf=6,
                         zombies=250, rate_pps=40.0, duration=4.0)


def test_fleet_train_mode_at_least_3x_packet_mode(benchmark):
    """Aggregated emission + fluid links must keep their order-of-magnitude
    advantage over per-packet simulation of the identical spec."""

    def measure():
        return (run_fleet(fleet_spec(mode="train", **FLEET_GATE_PARAMS)),
                run_fleet(fleet_spec(mode="packet", **FLEET_GATE_PARAMS)))

    train, packet = run_once(benchmark, measure)
    (train_packets, train_events, train_wall) = train
    (packet_packets, packet_events, packet_wall) = packet
    assert train_packets == packet_packets, (
        "train and per-packet mode generated different packet counts on the "
        "identical fleet spec — the equivalence contract broke"
    )
    speedup = packet_wall / train_wall
    table = ResultTable("Fleet: train vs per-packet mode", ["metric", "value"])
    table.add_row("packets (train / packet)",
                  f"{train_packets:,} / {packet_packets:,}")
    table.add_row("events (train / packet)",
                  f"{train_events:,} / {packet_events:,}")
    table.add_row("run() seconds (train / packet)",
                  f"{train_wall:.3f} / {packet_wall:.3f}")
    table.add_row("train-mode speedup", f"{speedup:.2f}x")
    table.print()
    assert speedup >= REQUIRED_TRAIN_SPEEDUP, (
        f"fleet: train mode is only {speedup:.2f}x per-packet mode "
        f"(gate is {REQUIRED_TRAIN_SPEEDUP}x) — the aggregation fast path "
        "regressed (see PERFORMANCE.md, 'Train mode')"
    )


def frames_per_packet(spec):
    """Python call events inside ``run()`` by layer (the package under
    ``repro``), and the packets the spec's generators offered."""
    execution = ExperimentRunner().prepare(spec)
    marker = os.sep + "repro" + os.sep
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            at = path.rfind(marker)
            layer = (path[at + len(marker):].split(os.sep, 1)[0]
                     if at >= 0 else "other")
            calls[layer[:-3] if layer.endswith(".py") else layer] += 1

    sys.setprofile(count)
    try:
        execution.run()
    finally:
        sys.setprofile(None)
    packets = 0
    for workload in execution.workloads:
        generator = workload.generator
        for source in getattr(generator, "attacks", (generator,)):
            packets += source.packets_offered
    return calls, packets


@pytest.mark.parametrize("make_spec, ceiling", [
    pytest.param(lambda: default_flood_spec(attack_pps=1500.0, duration=10.0,
                                            seed=0), 11.7, id="flood"),
    pytest.param(lambda: dataclasses.replace(
        default_flood_spec(attack_pps=1500.0, duration=10.0, seed=0),
        observe=ObserveSpec(channels=("packet", "aitf-control"),
                            metrics=True)), 14.0, id="observed_flood"),
    pytest.param(lambda: ExperimentSpec.from_dict(
        base_spec_dict("victim-stub", duration=3.0)), 26.7, id="hierarchy"),
])
def test_frames_per_packet_are_pinned(benchmark, make_spec, ceiling):
    """The hop chain's Python calls per generated packet (see PERFORMANCE.md,
    "The per-packet path"): deterministic, so the ceiling holds on any
    host."""
    calls, packets = run_once(benchmark, frames_per_packet, make_spec())
    total = sum(calls.values())
    table = ResultTable(f"Python frames per packet ({packets:,} packets)",
                        ["layer", "calls", "per packet"])
    for layer, n in calls.most_common():
        table.add_row(layer, f"{n:,}", f"{n / packets:.2f}")
    table.add_row("total", f"{total:,}", f"{total / packets:.2f}")
    table.print()
    assert total / packets <= ceiling, (
        f"a generated packet now costs {total / packets:.2f} Python frames, "
        f"ceiling {ceiling} — a call came back into the hop chain")
