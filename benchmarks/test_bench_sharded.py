"""Sharded-execution gates: correctness everywhere, speedup where it can.

Two claims guard the sharded engine:

* **Equivalence** — the sharded run generates exactly the packets the
  serial train engine generates on the identical spec.  This is cheap and
  machine-independent, so it runs everywhere.
* **Speedup** — on the 200-AS fleet, 8 shards must beat 1 shard by >= 3x.
  The scenario's traffic converges on one victim, so the victim's shard
  carries every final-hop delivery no matter how many shards run — that
  serial fraction (plus ~40% process/sync overhead measured on one core,
  see PERFORMANCE.md) caps 4-core speedup below the bar, which is why the
  gate requires 8 cores and skips honestly below that rather than flaking.
"""

import os
import time

import pytest

from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, ExperimentSpec

from benchmarks.conftest import run_once

#: The acceptance bar for sharded execution on the 200-AS fleet.
REQUIRED_SHARD_SPEEDUP = 3.0

#: Scaled-down fleet for the always-on equivalence gate.
SMALL_FLEET_PARAMS = dict(autonomous_systems=60, hosts_per_leaf=4,
                          zombies=100, duration=2.0)


def run_fleet(shards, autonomous_systems=200, hosts_per_leaf=10,
              zombies=1000, duration=5.0):
    """``(packets sent, wall seconds)`` of the undefended train-mode fleet
    flood on ``shards`` worker processes (1 = the serial train engine).

    The wall-clock includes the build/fork/partition set-up, identical
    across shard counts, so the serial-vs-sharded ratio is end to end.
    """
    spec = ExperimentSpec.from_dict({
        "schema": "experiment_spec/v1",
        "name": "sharded-fleet",
        "seed": 11,
        "duration": duration,
        "topology": {"kind": "powerlaw", "params": {
            "autonomous_systems": autonomous_systems,
            "hosts_per_leaf": hosts_per_leaf, "seed": 11}},
        "defense": {"backend": "none"},
        "engine": {"mode": "train", "max_train": 256, "shards": shards},
        "workloads": [{"kind": "zombies", "params": {
            "count": zombies, "rate_pps": 40.0, "start": 0.05}}],
    })
    start = time.perf_counter()
    result = ExperimentRunner().run(spec)
    wall = time.perf_counter() - start
    return sum(w.get("packets_sent", 0) for w in result.workload_stats), wall


def test_sharded_fleet_generates_identical_packets(benchmark):
    """2-shard and serial train runs of one spec emit the same packets."""

    def measure():
        return (run_fleet(1, **SMALL_FLEET_PARAMS),
                run_fleet(2, **SMALL_FLEET_PARAMS))

    serial, sharded = run_once(benchmark, measure)
    assert serial[0] == sharded[0], (
        "sharded and serial train mode generated different packet counts on "
        "the identical fleet spec — the ownership-gated start (or the "
        "cut-link divert/inject plumbing) lost or duplicated traffic"
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 8,
                    reason="shard speedup gate needs >= 8 cores: the "
                           "victim-shard serial fraction caps 4-core "
                           "speedup below the 3x bar")
def test_sharded_fleet_at_least_3x_serial(benchmark):
    """8 shards on the full 200-AS fleet must beat 1 shard by >= 3x."""

    serial, sharded = run_once(benchmark,
                               lambda: (run_fleet(1), run_fleet(8)))
    assert serial[0] == sharded[0]
    speedup = serial[1] / sharded[1]
    table = ResultTable("Fleet: sharded vs serial train mode",
                        ["metric", "value"])
    table.add_row("packets (both)", f"{serial[0]:,}")
    table.add_row("serial seconds", f"{serial[1]:.3f}")
    table.add_row("8-shard seconds", f"{sharded[1]:.3f}")
    table.add_row("shard speedup", f"{speedup:.2f}x")
    table.print()
    assert speedup >= REQUIRED_SHARD_SPEEDUP, (
        f"sharded fleet is only {speedup:.2f}x the serial train engine "
        f"(gate is {REQUIRED_SHARD_SPEEDUP}x) — the window sync or the "
        "partition balance regressed (see PERFORMANCE.md, 'Sharded "
        "execution')"
    )
