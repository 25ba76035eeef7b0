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
  channel on, the run formats no address, the recorder holds two machine
  values per record and Python objects only per distinct body, and
  reading the records back yields exactly the dicts the pre-row callbacks
  (kept below as the oracle) built per packet.
* **enabled-tracing memory gate** — what the ``packet`` channel's store
  holds, as ``tracemalloc`` counts it, is at most 16 bytes a record.
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
from repro.obs.trace import store_footprint

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


def _is_class_method(obj, name):
    """Whether ``obj.<name>`` is its class's own method, not an override."""
    bound = getattr(obj, name)
    return getattr(bound, "__func__", None) is getattr(type(obj), name)


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
            pipe = link.pipe_toward(end)
            assert pipe._sink is end, link.name
            # Read through the attribute, not vars(): that would give every
            # pipe and table an instance dict before the pinned run.
            assert _is_class_method(pipe, "_deliver_train"), link.name
    for router in topology.border_routers():
        table = router.filter_table
        assert _is_class_method(table, "blocks"), router.name
        assert _is_class_method(table, "blocks_train"), router.name
    assert execution.backend.deployment.event_log._listeners == []
    execution.run()
    assert execution.sim.stats() == PINNED_SIM_STATS[mode]


# ----------------------------------------------------------------------
# tracing on: a time and a body index at write time, dicts only on read
# ----------------------------------------------------------------------
def _oracle_packet_records(spec):
    """The ``packet`` channel as the callbacks before compact rows built it.

    Runs ``spec`` unobserved with the old ``on_packet`` / ``on_block``
    bodies called from tap wrappers: one dict and two formatted addresses
    per event.
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

    def wrap_packet(link, sink):
        def traced_receive(packet, arrived_over):
            on_packet(link, sink, packet)
            sink.receive_packet(packet, arrived_over)
        return traced_receive

    def wrap_blocks(table, blocks):
        def traced_blocks(packet):
            entry = blocks(packet)
            if entry is not None:
                on_block(table, entry, packet, 1)
            return entry
        return traced_blocks

    def wrap_blocks_train(table, blocks_train):
        def traced_blocks_train(template, count, interval,
                                count_checked=True):
            entry, blocked = blocks_train(template, count, interval,
                                          count_checked)
            if entry is not None and blocked:
                on_block(table, entry, template, blocked)
            return entry, blocked
        return traced_blocks_train

    for link in execution.handle.topology.links:
        link.tap(wrap_packet)
    for router in execution.handle.topology.border_routers():
        router.filter_table.tap(wrap_blocks, wrap_blocks_train)
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
    """A traced run pays a time and a body index per packet; dicts appear
    on read."""
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
    assert len(recorder) == len(oracle)
    # Two machine values per record, Python objects only per distinct body.
    assert (recorder.times.typecode, recorder.ids.typecode) == ("d", "I")
    assert len(recorder.times) == len(recorder.ids) == len(oracle)
    assert len(set(recorder.bodies)) == len(recorder.bodies) \
        == len(recorder.index)
    assert len(recorder.bodies) * 100 < len(recorder)
    assert not any(map(gc.is_tracked, recorder.bodies))
    assert list(recorder.records()) == oracle


def test_packet_trace_store_holds_at_most_16_bytes_a_record():
    """The store grows by a time and a body index per record (12 bytes),
    not by a tuple and a float (about 127)."""
    spec = dataclasses.replace(
        default_flood_spec(attack_pps=1500.0, duration=4.0, seed=0),
        observe=ObserveSpec(channels=("packet",)))
    footprint = store_footprint(spec)
    assert footprint["records"] > 10_000
    assert footprint["bytes_per_record"] <= 16, footprint


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
