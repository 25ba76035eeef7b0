"""Train-path work gate: a train costs O(1) Python at both of its ends.

Clock-free, like the sweep and tracing gates next door — counts, never
wall-clock.  The train engine exists so that nothing pays per packet; three
places used to, inside loops the ``*.calls`` counters cannot see (a loop in
a function is not a call), and each is pinned here by a count that does not
depend on the host:

* **at the meters** — while ``Simulator.run`` executes a figure-1 train
  flood, the per-packet bucketing reference ``_spread_train_buckets`` is
  never called: a delivered train is one stored row, and the windowed rates
  read afterwards equal the eagerly spread ones;
* **at the generators** — the Python lines executed inside
  ``TrainProcess._wakeup`` stay under one small constant per wake-up whether
  a train is 32 ticks or 256 (its parent walked the tick recurrence in
  Python: about six lines a tick);
* **at the gateways** — with 5,000 requests shadowed (the paper's mv = R1·T
  is 6,000), a lookup is one hash probe: 1,000 ``match_packet`` calls make
  at most 1,000 ``FlowLabel.matches`` calls, and reading the occupancy while
  nothing has expired pops nothing from the expiry heap.
"""

import sys

import pytest

from repro.analysis import metrics as metrics_module
from repro.experiments import ExperimentRunner, default_flood_spec
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router import label_index as label_index_module
from repro.router.shadow_cache import ShadowCache
from repro.sim.process import TrainProcess

#: Upper bound on the lines one ``_wakeup`` call executes (it has no loop).
LINES_PER_WAKEUP = 30


def train_flood(max_train):
    return default_flood_spec(duration=2.0, seed=0).with_overrides(
        {"engine.mode": "train", "engine.max_train": max_train})


def test_no_per_packet_bucketing_while_the_simulation_runs(monkeypatch):
    spread_calls = []
    spread = metrics_module._spread_train_buckets

    def counted(buckets, *row):
        spread_calls.append(row)
        spread(buckets, *row)

    monkeypatch.setattr(metrics_module, "_spread_train_buckets", counted)
    execution = ExperimentRunner().prepare(train_flood(32))
    result = execution.run()
    meter = execution.goodput_meter
    assert meter.packets > 500 and result.legit_goodput_bps > 0
    assert spread_calls == []
    # The rows are the same measurement: spread now, packet by packet, they
    # give the rate the result was just computed from.
    window = (execution.attack_window_start, 2.0)
    rate = meter.goodput_bps(*window)
    assert meter.goodput_series().values  # folds every pending row
    assert len(spread_calls) > 10
    assert sum(count for _, _, count, _, _ in spread_calls) > 500
    assert meter.goodput_bps(*window) == rate == result.legit_goodput_bps


@pytest.mark.parametrize("max_train", [32, 256])
def test_a_wakeup_executes_a_constant_number_of_lines(max_train):
    execution = ExperimentRunner().prepare(train_flood(max_train))
    wakeup_code = TrainProcess._wakeup.__code__
    work = {"wakeups": 0, "lines": 0}

    def count_lines(frame, event, arg):
        if event == "line":
            work["lines"] += 1
        return count_lines

    def on_call(frame, event, arg):
        if frame.f_code is wakeup_code:
            work["wakeups"] += 1
            return count_lines
        return None

    sys.settrace(on_call)
    try:
        execution.run()
    finally:
        sys.settrace(None)
    ticks = sum(w.generator.packets_sent for w in execution.workloads)
    assert work["wakeups"] >= 10 and ticks >= 8 * work["wakeups"], (work, ticks)
    assert work["lines"] <= LINES_PER_WAKEUP * work["wakeups"], (work, ticks)


def test_a_shadow_lookup_is_a_probe_and_an_idle_sweep_pops_nothing(monkeypatch):
    now = [0.0]
    cache = ShadowCache(capacity=6000, clock=lambda: now[0])
    victim = IPAddress.parse("10.9.0.1")
    sources = [IPAddress(0x0A000000 + host) for host in range(5000)]
    for source in sources:
        assert cache.log(FlowLabel.between(source, victim), 60.0) is not None

    matches_calls = []
    matches = FlowLabel.matches
    monkeypatch.setattr(
        FlowLabel, "matches",
        lambda label, packet: matches_calls.append(label) or matches(label, packet))
    pops = []
    heappop = label_index_module.heapq.heappop
    monkeypatch.setattr(
        label_index_module.heapq, "heappop",
        lambda heap: pops.append(heap[0]) or heappop(heap))

    now[0] = 30.0
    hits = 0
    for index in range(1000):
        # Every other packet is from a source nobody asked to block.
        source = sources[index * 5] if index % 2 else IPAddress(0x0B000000 + index)
        hits += cache.match_packet(Packet.data(source, victim), 3) is not None
    assert hits == 500
    assert len(matches_calls) <= 1000
    assert len(cache) == 5000 and cache.occupancy == 5000
    assert pops == []
    # ... and once they have expired, one sweep pops each record once.
    now[0] = 61.0
    assert len(cache) == 0 and len(pops) == 5000
    assert cache.total_expired == 5000 and cache.peak_occupancy == 5000
