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
* **enabled-tracing work gate** — equally clock-free: with the ``packet``
  channel on, the run formats no address, every stored row is a tuple the
  cyclic collector has untracked, and reading the rows back yields exactly
  the dicts the pre-row callbacks (kept below as the oracle) built per
  packet.
* **enabled-tracing sanity** — per-channel overhead is measured in-process
  (off vs each channel vs everything on) and printed, not gated; the
  full-fat configuration must still finish and produce records.
"""

import dataclasses
import gc
import time

import pytest

from repro.analysis.report import ResultTable
from repro.experiments import ExperimentRunner, ObserveSpec, default_flood_spec
from repro.net.address import IPAddress

from benchmarks.conftest import run_once

#: ``Simulator.stats()`` after the unobserved 1500 pps / 4 s flood, per engine.
#: A generator's next tick is in the heap one tick ahead, never a batch of
#: ticks ahead, and none is queued past the horizon.
PINNED_SIM_STATS = {
    "packet": {"now": 4.0, "events_processed": 18472, "pending_events": 9,
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
                "_deliver", "_deliver_train"}
            assert not overridden, (link.name, overridden)
    for router in topology.border_routers():
        tapped = set(vars(router.filter_table)) & {"blocks", "blocks_train"}
        assert not tapped, (router.name, tapped)
    assert execution.backend.deployment.event_log._listeners == []
    execution.run()
    assert execution.sim.stats() == PINNED_SIM_STATS[mode]


# ----------------------------------------------------------------------
# tracing on: rows at write time, dicts only on read
# ----------------------------------------------------------------------
def _oracle_packet_records(spec):
    """The ``packet`` channel as the callbacks before compact rows built it.

    Runs ``spec`` unobserved with the old ``on_packet`` / ``on_block``
    bodies tapped in: one dict and two formatted addresses per event.
    """
    execution = ExperimentRunner().prepare(spec)
    sim = execution.sim
    records = []
    filter_ids = {}

    def on_packet(link, sink, packet):
        fields = {
            "link": link.name, "node": sink.name,
            "src": str(packet.src), "dst": str(packet.dst),
            "size": packet.size,
        }
        if packet.kind.value != "data":
            fields["kind"] = packet.kind.value
        if packet.flow_tag:
            fields["flow"] = packet.flow_tag
        records.append({"t": sim._now, "ch": "packet", "ev": "deliver",
                        **fields})

    def on_block(table, entry, packet, count):
        records.append({
            "t": sim._now, "ch": "packet", "ev": "filter_block",
            "node": table.name or "", "src": str(packet.src),
            "dst": str(packet.dst), "count": count,
            "filter_id": filter_ids.setdefault(entry.filter_id,
                                               len(filter_ids) + 1)})

    for link in execution.handle.topology.links:
        link.tap(packet_observer=on_packet)
    for router in execution.handle.topology.border_routers():
        router.filter_table.tap(on_block)
    execution.run()
    return records


def _run_counting_address_formats(execution, monkeypatch) -> int:
    """Run ``execution``; how many times did it call ``IPAddress.__str__``?"""
    calls = [0]
    render = IPAddress.__str__

    def counting(address):
        calls[0] += 1
        return render(address)

    with monkeypatch.context() as patch:
        patch.setattr(IPAddress, "__str__", counting)
        execution.run()
    return calls[0]


def test_enabled_packet_tracing_stores_untracked_rows_and_formats_nothing(
        monkeypatch):
    """A traced run pays one flat tuple per packet; dicts appear on read."""
    base = default_flood_spec(attack_pps=1500.0, duration=4.0, seed=0)
    spec = dataclasses.replace(base, observe=ObserveSpec(channels=("packet",)))
    # The protocol agents format a handful of addresses into their event
    # log whether or not anything observes; tracing must add none.
    untraced = _run_counting_address_formats(
        ExperimentRunner().prepare(base), monkeypatch)
    execution = ExperimentRunner().prepare(spec)
    assert _run_counting_address_formats(execution, monkeypatch) == untraced
    assert untraced < 10

    recorder = execution.observer.recorder
    oracle = _oracle_packet_records(base)
    assert {r["ev"] for r in oracle} == {"deliver", "filter_block"}
    gc.collect()
    assert len(recorder._rows) == len(oracle)
    assert all(type(row) is tuple and not gc.is_tracked(row)
               for row in recorder._rows)
    assert list(recorder.records()) == oracle


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
