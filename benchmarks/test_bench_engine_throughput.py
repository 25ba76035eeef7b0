"""Engine regression gates: deterministic work, and one paired ratio.

The fast-path overhaul (slotted events, fire-and-forget link scheduling,
indexed filter tables, batched traffic generation) was accepted on a >=3x
packets/sec improvement over the recorded seed baseline for the canonical
flood-defense scenario, and this file used to re-measure that number against
a wall-clock calibration probe on every run.  One module-scoped probe cannot
follow a host whose speed regime flips within seconds, so that gate failed
now and then on an unchanged checkout.  What gates now repeats exactly:

* ``flood``, ``flood_heavy`` and ``scaling`` must generate exactly the pinned
  number of packets in exactly the pinned number of simulator events — the
  work the engine does for the scenario, which a change to the fast path
  (one event per packet again, a generator that drifts) moves and the host
  cannot.  The calibrated speed-up over the seed is printed, not asserted
  (the test ids keep their names for the record of past runs);
* the fleet scenario in train mode must stay >=3x per-packet mode — a ratio
  of two runs in this process, side by side, so host speed cancels.
"""

import json
import os

import pytest

from repro.analysis.report import ResultTable
from repro.perf.bench import SEED_BASELINE, calibrate, run_bench

from benchmarks.conftest import run_once

#: What the recorded seed comparison was accepted on; BENCH_engine.json must
#: still carry it, and the printed speed-up is read against it.
REQUIRED_SPEEDUP = 3.0

#: ``(packets generated, simulator events)`` per scenario at its default
#: parameters and seed.
PINNED_WORK = {
    "flood": (18250, 43795),
    "flood_heavy": (51500, 117025),
    "scaling": (21096, 44493),
}

#: Path of the checked-in benchmark record (repo root).
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_engine.json")


@pytest.fixture(scope="module")
def calibration():
    """One machine-speed probe shared by every test in the module."""
    return calibrate()


def check_pinned_work(benchmark, name, calibration):
    result = run_once(benchmark, run_bench, name, repeats=3)
    table = ResultTable(f"Engine throughput: {name}",
                        ["metric", "value"])
    table.add_row("packets", f"{result.packets:,}")
    table.add_row("events", f"{result.events:,}")
    table.add_row("packets/sec", f"{result.packets_per_sec:,.0f}")
    table.add_row("events/sec", f"{result.events_per_sec:,.0f}")
    table.add_row("seed packets/sec (recorded)",
                  f"{SEED_BASELINE[name]['packets_per_sec']:,.0f}")
    table.add_row("calibration ops/sec", f"{calibration:,.0f}")
    table.add_row("speedup vs seed (calibrated, not gated)",
                  f"{result.speedup_vs_seed(calibration):.2f}x")
    table.print()
    assert (result.packets, result.events) == PINNED_WORK[name], (
        f"{name}: the engine now takes {result.events:,} events for "
        f"{result.packets:,} packets, pinned {PINNED_WORK[name]} — the "
        "scenario or the fast path's event economy changed (see "
        "PERFORMANCE.md)"
    )


@pytest.mark.parametrize("name", ["flood", "flood_heavy"])
def test_flood_defense_throughput_at_least_3x_seed(benchmark, name, calibration):
    check_pinned_work(benchmark, name, calibration)


def test_scaling_throughput_does_not_regress(benchmark, calibration):
    """The power-law scaling workload exercises topology construction and
    the full AITF protocol stack, not just the packet fast path."""
    check_pinned_work(benchmark, "scaling", calibration)


#: Train mode must beat per-packet mode on the fleet scenario by at least
#: this factor in CI (the recorded full-size run in BENCH_engine.json is
#: held to >= 5x; the gate runs a scaled-down fleet to stay fast, where
#: fixed per-run costs weigh heavier, so the bar is the same 3x as above).
REQUIRED_TRAIN_SPEEDUP = 3.0

#: Scaled-down fleet for the CI gate: same scenario shape, ~4x smaller.
FLEET_GATE_PARAMS = dict(autonomous_systems=100, hosts_per_leaf=6,
                         zombies=250, rate_pps=40.0, duration=4.0)


def test_fleet_train_mode_at_least_3x_packet_mode(benchmark):
    """The packet-train engine gate: aggregated emission + fluid links must
    keep their order-of-magnitude advantage over per-packet simulation on
    the same fleet-scale scenario."""

    def measure():
        train = run_bench("fleet", repeats=1, warmup=False, **FLEET_GATE_PARAMS)
        packet = run_bench("fleet_packet", repeats=1, warmup=False,
                           **FLEET_GATE_PARAMS)
        return train, packet

    train, packet = run_once(benchmark, measure)
    assert train.packets == packet.packets, (
        "train and per-packet mode generated different packet counts on the "
        "identical fleet scenario — the equivalence contract broke"
    )
    speedup = train.packets_per_sec / packet.packets_per_sec
    table = ResultTable("Fleet: train vs per-packet mode", ["metric", "value"])
    table.add_row("packets (both modes)", f"{train.packets:,}")
    table.add_row("train mode pkts/sec", f"{train.packets_per_sec:,.0f}")
    table.add_row("packet mode pkts/sec", f"{packet.packets_per_sec:,.0f}")
    table.add_row("train-mode speedup", f"{speedup:.2f}x")
    table.print()
    assert speedup >= REQUIRED_TRAIN_SPEEDUP, (
        f"fleet: train mode is only {speedup:.2f}x per-packet mode "
        f"(gate is {REQUIRED_TRAIN_SPEEDUP}x) — the aggregation fast path "
        "regressed (see PERFORMANCE.md, 'Train mode')"
    )


def test_bench_engine_json_is_checked_in_and_consistent():
    """BENCH_engine.json must exist and carry the >=3x flood numbers, the
    pinned work they were measured on, and the >=5x recorded fleet
    train-mode speedup."""
    with open(BENCH_JSON) as handle:
        doc = json.load(handle)
    assert doc["schema"] == "bench_engine/v1"
    assert doc["seed_baseline"] == SEED_BASELINE
    for name in ("flood", "flood_heavy"):
        entry = doc["benches"][name]
        assert entry["speedup_vs_seed"] >= REQUIRED_SPEEDUP
    for name, work in PINNED_WORK.items():
        entry = doc["benches"][name]
        assert (entry["packets"], entry["events"]) == work
    # The recorded fleet case: train mode >= 5x per-packet mode, and the
    # perf trajectory history is being accumulated rather than overwritten.
    assert doc["train_mode_speedup"]["fleet"] >= 5.0
    assert doc["history"], "BENCH_engine.json should carry a history list"
    assert doc["history"][-1]["packets_per_sec"].keys() == doc["benches"].keys()
