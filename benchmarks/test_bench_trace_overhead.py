"""Tracing-overhead regression gates.

The observability plane (``repro.obs``) hooks links, filter tables and the
protocol event log — but only on observed runs: an unobserved spec swaps in
no taps, subscribes no listeners and allocates no recorder.  Two checks keep
that promise honest:

* **disabled-tracing gate** — deterministic, no clock involved: after
  ``prepare`` of an unobserved flood spec no pipe carries an instance-level
  delivery or emit override, no filter table is tapped and the protocol
  event log has no listener; after the run the engine's work counters equal
  a pinned vector.  A change that makes the hot path pay for tracing while
  it is off either leaves a hook behind or fires an extra event, and trips
  this on any host, every time.
* **enabled-tracing sanity** — per-channel overhead is measured in-process
  (off vs each channel vs everything on) and printed, not gated; the
  full-fat configuration must still finish and produce records.
"""

import dataclasses
import time

import pytest

from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, ObserveSpec, default_flood_spec

from benchmarks.conftest import run_once

#: ``Simulator.stats()`` after the unobserved 1500 pps / 4 s flood, per engine.
PINNED_SIM_STATS = {
    "packet": {"now": 4.0, "events_processed": 18472, "pending_events": 133,
               "heap_compactions": 0},
    "train": {"now": 4.0, "events_processed": 231, "pending_events": 4,
              "heap_compactions": 0},
}


@pytest.mark.parametrize("mode", sorted(PINNED_SIM_STATS))
def test_disabled_tracing_leaves_no_hook_and_adds_no_work(mode):
    """An unobserved run must not pay for the observability hooks."""
    spec = default_flood_spec(attack_pps=1500.0, duration=4.0, seed=0
                              ).with_overrides({"engine.mode": mode})
    assert not spec.observe.enabled
    execution = ExperimentRunner().prepare(spec)
    topology = execution.handle.topology
    for link in topology.links:
        for end in (link.a, link.b):
            overridden = set(vars(link.pipe_toward(end))) & {
                "_deliver", "_deliver_train", "_emit_packet", "_emit_train"}
            assert not overridden, (link.name, overridden)
    for router in topology.border_routers():
        tapped = set(vars(router.filter_table)) & {"blocks", "blocks_train"}
        assert not tapped, (router.name, tapped)
    assert execution.backend.deployment.event_log._listeners == []
    execution.run()
    assert execution.sim.stats() == PINNED_SIM_STATS[mode]


# ----------------------------------------------------------------------
# per-channel overhead (numbers quoted in PERFORMANCE.md)
# ----------------------------------------------------------------------
#: Label -> observe block.  ``all + metrics`` is the full-fat recorder.
_MODES = (
    ("tracing off", None),
    ("aitf-control", ObserveSpec(channels=("aitf-control",))),
    ("routing", ObserveSpec(channels=("routing",))),
    ("fault", ObserveSpec(channels=("fault",))),
    ("packet", ObserveSpec(channels=("packet",))),
    ("metrics only", ObserveSpec(metrics=True)),
    ("all + metrics", ObserveSpec(
        channels=("packet", "train", "aitf-control", "routing", "fault"),
        metrics=True)),
)


def _time_flood(observe, repeats: int = 2) -> float:
    """Best wall-clock of ``repeats`` observed/unobserved flood runs."""
    best = float("inf")
    for _ in range(repeats):
        spec = default_flood_spec(attack_pps=1500.0, duration=4.0, seed=0)
        if observe is not None:
            spec = dataclasses.replace(spec, observe=observe)
        execution = ExperimentRunner().prepare(spec)
        start = time.perf_counter()
        execution.run()
        best = min(best, time.perf_counter() - start)
    return best


def test_per_channel_overhead_table(benchmark):
    """Measure tracing-on overhead per channel and sanity-check the full set."""
    def measure():
        return [(label, _time_flood(observe)) for label, observe in _MODES]

    timings = run_once(benchmark, measure)
    baseline = timings[0][1]
    table = ResultTable("Tracing overhead: flood (1500 pps, 4 s)",
                        ["configuration", "wall", "vs off"])
    for label, wall in timings:
        table.add_row(label, f"{wall * 1e3:,.0f} ms",
                      f"{(wall / baseline - 1.0) * 100.0:+.1f}%")
    table.print()

    # The full-fat run must actually record something on every front.
    spec = dataclasses.replace(
        default_flood_spec(attack_pps=1500.0, duration=4.0, seed=0),
        observe=_MODES[-1][1])
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    obs = result.observability
    assert obs["trace"]["records"] > 0
    assert obs["metrics"]["counters"]
    assert obs["protocol_events"].get("filter_installed", 0) >= 1
