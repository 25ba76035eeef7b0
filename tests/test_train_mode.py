"""Packet-train aggregation engine (``ExperimentSpec.engine.mode = "train"``).

Three layers of pinning:

* **Unit** — PacketTrain / TrainProcess / fluid pipe / blocks_train behave
  as specified (exact pass-through, count-multiplied accounting, mid-train
  filter splits).
* **Exact equivalence** — on uncongested paths with a drain window, train
  mode reproduces per-packet mode's delivered/dropped counts and windowed
  rates *exactly*, and the AITF filtering-response metrics
  (time_to_first_block, time_to_attacker_gateway_filter) are equal to the
  last bit even with concurrent legitimate traffic.
* **Stated tolerance under congestion** — the fluid model's fair-share
  dropping must keep aggregate delivered traffic within 5% of per-packet
  mode and each flow within a factor of two (synchronized CBR flows
  phase-lock against drop-tail queues in per-packet mode, which fluid
  proportional sharing deliberately smooths over).

The default per-packet path is pinned separately by test_determinism.py;
nothing here touches it.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import (
    EngineSpec,
    ExperimentRunner,
    ExperimentSpec,
    default_flood_spec,
    default_onoff_spec,
    spec_hash,
)
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.train import PacketTrain
from repro.router.filter_table import FilterTable
from repro.sim.engine import Simulator
from repro.sim.process import TrainProcess


def make_template(size=1000, src="10.0.0.1", dst="10.0.0.2", **kwargs):
    return Packet.data(src=IPAddress.parse(src), dst=IPAddress.parse(dst),
                       size=size, **kwargs)


class Sink:
    name = "sink"

    def __init__(self):
        self.packets = []
        self.trains = []
        self.arrival_times = []
        self.sim = None

    def receive_packet(self, packet, link):
        self.packets.append(packet)
        if self.sim is not None:
            self.arrival_times.append(self.sim.now)

    def receive_train(self, train, link):
        self.trains.append((train.count, train.interval))
        if self.sim is not None:
            self.arrival_times.append(self.sim.now)


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
class TestPacketTrain:
    def test_basic_properties(self):
        train = PacketTrain(make_template(500), 10, 0.01)
        assert train.size == 500
        assert train.total_bytes == 5000
        assert train.span == pytest.approx(0.09)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            PacketTrain(make_template(), 0, 0.01)
        with pytest.raises(ValueError):
            PacketTrain(make_template(), 1, -0.01)


class TestTrainProcess:
    def test_tick_count_matches_one_tick_per_wakeup_over_horizon(self):
        # Same interval, same start, same horizon: the aggregated process
        # must emit exactly as many ticks as one wakeup per tick does.
        horizon = 3.0
        sim_p = Simulator()
        periodic = TrainProcess(sim_p, 1.0 / 700.0, lambda count: None)
        periodic.start()
        sim_p.run(until=horizon)
        periodic.stop()

        sim_t = Simulator()
        emitted = []
        train = TrainProcess(sim_t, 1.0 / 700.0, emitted.append,
                             max_train=64, horizon=horizon)
        train.start()
        sim_t.run(until=horizon)
        assert sum(emitted) == periodic.ticks
        assert train.ticks == periodic.ticks
        assert max(emitted) <= 64

    def test_limit_until_is_exclusive(self):
        sim = Simulator()
        emitted = []
        process = TrainProcess(sim, 0.1, emitted.append, max_train=100)
        process.limit_until = 0.5  # ticks at 0.0 .. 0.4 fire; 0.5 does not
        process.start()
        sim.run(until=2.0)
        assert sum(emitted) == 5

    @pytest.mark.parametrize("max_train", [1, 4])
    def test_limit_until_set_mid_run_binds_from_the_next_wakeup(self, max_train):
        # The bound is bisected once per timeline chunk; setting it while a
        # chunk is in use must re-bound that chunk, not wait for the next.
        sim = Simulator()
        emitted = []
        process = TrainProcess(sim, 0.1, emitted.append, max_train=max_train)
        process.start()
        sim.run(until=0.25)  # the ticks (or the train) from 0.0 on
        process.limit_until = 0.65  # ticks up to 0.6 fire, then none
        sim.run(until=5.0)
        assert sum(emitted) == 7
        assert not process.running

    def test_stop_goes_stale_at_train_boundary(self):
        sim = Simulator()
        emitted = []
        process = TrainProcess(sim, 0.1, emitted.append, max_train=4)
        process.start()
        sim.run(until=0.0)  # first train only
        process.stop()
        sim.run(until=10.0)
        assert sum(emitted) == 4  # the pending wakeup evaporated

    def test_max_ticks_bounds_total_emission(self):
        sim = Simulator()
        emitted = []
        process = TrainProcess(sim, 0.1, emitted.append, max_train=8,
                               max_ticks=19)
        process.start()
        sim.run(until=100.0)
        assert sum(emitted) == 19
        assert not process.running

    def test_callback_false_stops(self):
        sim = Simulator()
        calls = []

        def emit(count):
            calls.append(count)
            return False

        TrainProcess(sim, 0.1, emit, max_train=4).start()
        sim.run(until=10.0)
        assert len(calls) == 1


class TestFluidPipe:
    def _link(self, sink, bandwidth=8e6, delay=0.01, cap=128_000):
        sim = Simulator()

        class Src:
            name = "src"

            def receive_packet(self, packet, link):  # pragma: no cover
                pass

        src = Src()
        link = Link(sim, src, sink, bandwidth_bps=bandwidth, delay=delay,
                    queue_capacity_bytes=cap)
        link.enable_train_mode()
        sink.sim = sim
        return sim, src, link

    def test_uncongested_train_passes_through_exactly(self):
        sink = Sink()
        sim, src, link = self._link(sink)
        # 1000-byte packets at 8 Mbps: tx = 1 ms; interval 2 ms > tx.
        train = PacketTrain(make_template(), 50, 0.002)
        assert link.send_train(train, src) is True
        sim.run()
        assert sink.trains == [(50, 0.002)]
        stats = link.stats_toward(sink)
        assert stats.packets_sent == 50
        assert stats.packets_delivered == 50
        assert stats.packets_dropped == 0
        assert stats.bytes_delivered == 50_000
        assert stats.busy_time == pytest.approx(50 * 0.001)
        queue = link.queue_toward(sink)
        assert queue.stats.enqueued == 50
        assert queue.stats.dequeued == 50
        assert queue.stats.dropped == 0
        # The train (head packet) arrives after one serialization plus the
        # propagation delay, like the per-packet lazy pipe.
        assert sink.arrival_times == [pytest.approx(0.001 + 0.01)]

    def test_overloaded_train_is_tail_dropped_with_conserved_counts(self):
        sink = Sink()
        sim, src, link = self._link(sink, cap=16_000)
        # Offered at 4x the link rate: ~1/4 of a long train survives.
        train = PacketTrain(make_template(), 400, 0.00025)
        link.send_train(train, src)
        sim.run()
        stats = link.stats_toward(sink)
        assert stats.packets_sent == 400
        assert stats.packets_delivered + stats.packets_dropped == 400
        assert 0 < stats.packets_delivered < 200
        delivered = sink.trains[0][0]
        assert delivered == stats.packets_delivered
        queue = link.queue_toward(sink)
        assert queue.stats.dropped == stats.packets_dropped
        assert queue.stats.enqueued == delivered

    def test_single_packets_ride_the_fluid_path_exactly_when_idle(self):
        sink = Sink()
        sim, src, link = self._link(sink)
        packet = make_template()
        assert link.send(packet, src) is True
        sim.run()
        assert len(sink.packets) == 1
        assert sink.arrival_times == [pytest.approx(0.001 + 0.01)]

    def test_oversized_packet_dropped_in_train_mode(self):
        sink = Sink()
        sim, src, link = self._link(sink, cap=500)
        assert link.send(make_template(1000), src) is False
        assert link.stats_toward(sink).packets_dropped == 1


class TestBlocksTrain:
    def _table(self, sim):
        return FilterTable(capacity=10, clock=lambda: sim.now)

    def test_filter_covering_whole_train_blocks_all(self):
        sim = Simulator()
        table = self._table(sim)
        template = make_template()
        label = FlowLabel.between(template.src, template.dst)
        entry = table.install(label, duration=10.0)
        blocking, blocked = table.blocks_train(template, 100, 0.01)
        assert blocking is entry
        assert blocked == 100
        assert entry.packets_blocked == 100
        assert entry.bytes_blocked == 100_000
        assert table.packets_blocked == 100
        assert table.packets_checked == 100

    def test_filter_expiring_mid_train_blocks_only_the_prefix(self):
        sim = Simulator()
        table = self._table(sim)
        template = make_template()
        label = FlowLabel.between(template.src, template.dst)
        entry = table.install(label, duration=0.35)
        # Train spans [0, 0.99] at dt=0.01; filter lives until 0.35:
        # packets 0..34 (times 0.00..0.34) are blocked, 35 onward pass.
        blocking, blocked = table.blocks_train(template, 100, 0.01)
        assert blocking is entry
        assert blocked == 35
        assert entry.last_blocked_at == pytest.approx(0.34)

    def test_unmatched_train_is_not_blocked(self):
        sim = Simulator()
        table = self._table(sim)
        table.install(FlowLabel.between("10.9.9.9", "10.8.8.8"), duration=10.0)
        blocking, blocked = table.blocks_train(make_template(), 50, 0.01)
        assert blocking is None and blocked == 0


# ----------------------------------------------------------------------
# spec plumbing
# ----------------------------------------------------------------------
class TestEngineSpec:
    def test_defaults_to_exact_packet_mode(self):
        assert ExperimentSpec().engine == EngineSpec()
        assert ExperimentSpec().engine.mode == "packet"

    def test_round_trips_through_json(self):
        spec = default_flood_spec().with_overrides(
            {"engine.mode": "train", "engine.max_train": 64})
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt.engine.mode == "train"
        assert rebuilt.engine.max_train == 64
        assert rebuilt == spec

    def test_unknown_engine_mode_rejected(self):
        with pytest.raises(ValueError, match="engine mode"):
            EngineSpec(mode="quantum")

    def test_unknown_engine_key_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSpec.from_dict({"engine": {"mode": "train", "warp": 9}})

    def test_invalid_max_train_rejected(self):
        with pytest.raises(ValueError, match="max_train"):
            EngineSpec(mode="train", max_train=0)

    def test_engine_mode_changes_spec_hash(self):
        base = default_flood_spec(duration=2.0)
        assert spec_hash(base) != spec_hash(
            base.with_overrides({"engine.mode": "train"}))


# ----------------------------------------------------------------------
# equivalence: train vs packet mode
# ----------------------------------------------------------------------
def run_flood(mode, *, defense="aitf", defense_params=None, attack_pps=300.0,
              legit_pps=200.0, duration=6.0, workload_duration=5.0,
              max_train=256, seed=0):
    """One flood run; workloads end one second before the horizon so every
    packet drains from the network (in-flight packets at the horizon are the
    one place even an uncongested comparison cannot be exact)."""
    spec = default_flood_spec(attack_pps=attack_pps, legit_pps=legit_pps,
                              duration=duration, defense=defense,
                              defense_params=defense_params, seed=seed)
    overrides = {"workloads.0.params.duration": workload_duration,
                 "workloads.1.params.duration": workload_duration}
    if mode == "train":
        overrides.update({"engine.mode": "train",
                          "engine.max_train": max_train})
    spec = spec.with_overrides(overrides)
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    return execution, result


class TestUncongestedExactEquivalence:
    """300 pps attack + 200 pps legit over a 10 Mbps tail circuit: no queue
    ever fills, so train mode must agree with per-packet mode exactly."""

    def test_transport_counts_and_rates_exact_without_defense(self):
        packet_exec, packet_result = run_flood("packet", defense="none")
        train_exec, train_result = run_flood("train", defense="none")
        # Emission, delivery and windowed-rate metrics all agree exactly.
        for attr in ("packets_sent", "packets_suppressed"):
            assert (getattr(train_exec.attack_workloads()[0].generator, attr)
                    == getattr(packet_exec.attack_workloads()[0].generator, attr))
        assert (train_exec.attack_meters[0].packets
                == packet_exec.attack_meters[0].packets)
        assert (train_exec.goodput_meter.packets
                == packet_exec.goodput_meter.packets)
        assert train_result.attack_received_bps == packet_result.attack_received_bps
        assert train_result.legit_goodput_bps == packet_result.legit_goodput_bps
        assert (train_result.legit_delivery_ratio
                == packet_result.legit_delivery_ratio)

    def test_filtering_response_time_exact_under_aitf(self):
        # The first attack train's head arrives at the victim at the exact
        # per-packet time (fluid pipes add tx + delay to an uncontended
        # head), so the whole control-plane chain — detection, request,
        # temporary filter, propagation to the attacker's gateway — lands on
        # identical timestamps.
        _, packet_result = run_flood("packet")
        _, train_result = run_flood("train")
        assert (train_result.time_to_first_block
                == packet_result.time_to_first_block)
        assert (train_result.defense_stats["time_to_attacker_gateway_filter"]
                == packet_result.defense_stats["time_to_attacker_gateway_filter"])
        assert (train_result.defense_stats["requests_sent_by_victim"]
                == packet_result.defense_stats["requests_sent_by_victim"])
        assert train_result.control_messages == packet_result.control_messages

    def test_residual_attack_delivery_bounded_by_one_train(self):
        # A filter installed mid-span cannot retract an already-forwarded
        # train, so the attack may over-deliver — by at most max_train
        # packets per flow.  Pin that bound at a small max_train.
        packet_exec, _ = run_flood("packet")
        train_exec, _ = run_flood("train", max_train=32)
        drift = (train_exec.attack_meters[0].packets
                 - packet_exec.attack_meters[0].packets)
        assert 0 <= drift <= 32


class TestCongestedTolerance:
    """3000 pps attack + 400 pps legit onto the 10 Mbps tail: the stated
    train-mode tolerance under congestion is 5% on aggregate delivered
    traffic and a factor of two per flow (fluid fair-share vs per-packet
    CBR phase-locking)."""

    @pytest.fixture(scope="class")
    def runs(self):
        packet_exec, packet_result = run_flood(
            "packet", defense="none", attack_pps=3000.0, legit_pps=400.0)
        train_exec, train_result = run_flood(
            "train", defense="none", attack_pps=3000.0, legit_pps=400.0)
        return packet_exec, train_exec

    def test_aggregate_delivery_within_5_percent(self, runs):
        packet_exec, train_exec = runs
        total_packet = (packet_exec.attack_meters[0].packets
                        + packet_exec.goodput_meter.packets)
        total_train = (train_exec.attack_meters[0].packets
                       + train_exec.goodput_meter.packets)
        assert total_train == pytest.approx(total_packet, rel=0.05)

    def test_per_flow_delivery_within_factor_two(self, runs):
        packet_exec, train_exec = runs
        for meter in ("attack", "legit"):
            if meter == "attack":
                got = train_exec.attack_meters[0].packets
                want = packet_exec.attack_meters[0].packets
            else:
                got = train_exec.goodput_meter.packets
                want = packet_exec.goodput_meter.packets
            assert want > 0
            assert 0.5 <= got / want <= 2.0

    def test_congestion_actually_dropped_packets(self, runs):
        packet_exec, train_exec = runs
        for execution in runs:
            delivered = (execution.attack_meters[0].packets
                         + execution.goodput_meter.packets)
            emitted = (execution.attack_workloads()[0].generator.packets_sent
                       + execution.legit_workloads()[0].generator.packets_offered)
            assert delivered < emitted * 0.5  # deep congestion in both modes


class TestPushbackTrainEquivalence:
    """The train-aware Pushback conditioner: whole-train arrival-rate
    accounting plus expected-value count scaling with a fractional carry —
    no RNG, no train explosion."""

    def test_uncongested_pushback_exact(self):
        # Below the aggregate limit the drop probability is 0 everywhere,
        # so every delivery metric matches per-packet mode to the last bit.
        # The one train-granularity artifact: a train already emitted when
        # the limiter installs is metered whole or not at all, so the
        # *passed* counter may lag per-packet mode by up to one train per
        # flow — everything else is exact.
        params = {"limit_bps": 1e8}
        max_train = 64
        _, packet_result = run_flood("packet", defense="pushback",
                                     defense_params=params)
        _, train_result = run_flood("train", defense="pushback",
                                    defense_params=params,
                                    max_train=max_train)
        packet_stats = dict(packet_result.defense_stats)
        train_stats = dict(train_result.defense_stats)
        packet_passed = packet_stats.pop("packets_passed")
        train_passed = train_stats.pop("packets_passed")
        assert train_stats == packet_stats
        assert train_stats["packets_dropped"] == 0
        flows = 2  # the attack and the legitimate stream
        assert 0 <= packet_passed - train_passed <= flows * max_train
        assert (train_result.legit_goodput_bps
                == packet_result.legit_goodput_bps)
        assert (train_result.attack_received_bps
                == packet_result.attack_received_bps)

    def test_congested_pushback_drops_track_packet_mode(self):
        # Over the limit, per-packet mode flips seeded coins while train
        # mode passes the *expected* survivor count; the realized drop
        # totals must agree closely (the carry keeps rounding unbiased).
        packet_exec, packet_result = run_flood(
            "packet", defense="pushback", attack_pps=3000.0)
        train_exec, train_result = run_flood(
            "train", defense="pushback", attack_pps=3000.0)
        packet_dropped = packet_result.defense_stats["packets_dropped"]
        train_dropped = train_result.defense_stats["packets_dropped"]
        assert packet_dropped > 0
        assert train_dropped == pytest.approx(packet_dropped, rel=0.1)
        # The conditioner scales trains instead of exploding them into
        # per-packet events: rate limiting must not cost train mode its
        # event-count advantage.
        assert (train_exec.sim.events_processed
                < packet_exec.sim.events_processed / 2)


class TestTrainModeDeterminism:
    def test_train_mode_repeats_identically(self):
        first = dataclasses.asdict(run_flood("train")[1])
        second = dataclasses.asdict(run_flood("train")[1])
        assert first == second

    def test_zombie_army_train_emission_matches_packet_mode(self):
        # Defense "none": with cooperative AITF stops in play, emission
        # counts may differ by up to one already-emitted train per flow (a
        # stop cannot retract a train) — without stops they must be exact.
        spec = default_flood_spec(duration=3.0, topology="dumbbell",
                                  topology_params={"sources": 5},
                                  defense="none")
        spec = spec.with_overrides({
            "workloads.1": {"kind": "zombies",
                            "params": {"count": 3, "rate_pps": 150.0,
                                       "start": 0.2, "duration": 2.0}},
            "workloads.0.params.duration": 2.0,
        })
        packet_exec = ExperimentRunner().prepare(spec)
        packet_exec.run()
        train_exec = ExperimentRunner().prepare(
            spec.with_overrides({"engine.mode": "train"}))
        train_exec.run()
        packet_army = packet_exec.attack_workloads()[0].generator
        train_army = train_exec.attack_workloads()[0].generator
        assert train_army.packets_sent == packet_army.packets_sent

    def test_spoofed_zombie_train_emission_matches_packet_mode(self):
        # Spoofed floods are train-native: one freshly drawn source per
        # train keeps the flood aggregable while the *count* stays exactly
        # the per-packet number (the source sequence is coarser by design).
        spec = default_flood_spec(duration=3.0, topology="dumbbell",
                                  topology_params={"sources": 5},
                                  defense="none")
        spec = spec.with_overrides({
            "workloads.1": {"kind": "zombies",
                            "params": {"count": 3, "rate_pps": 150.0,
                                       "start": 0.2, "duration": 2.0,
                                       "spoofed": True}},
            "workloads.0.params.duration": 2.0,
        })
        packet_exec = ExperimentRunner().prepare(spec)
        packet_exec.run()
        train_exec = ExperimentRunner().prepare(
            spec.with_overrides({"engine.mode": "train"}))
        train_exec.run()
        packet_army = packet_exec.attack_workloads()[0].generator
        train_army = train_exec.attack_workloads()[0].generator
        assert train_army.packets_sent == packet_army.packets_sent
        assert train_army.packets_sent > 0

    def test_poisson_traffic_train_emission_matches_packet_mode(self):
        # Poisson legit traffic draws its exponential gaps from the same
        # seeded stream in both modes, so offered/sent counts are exact.
        spec = default_flood_spec(duration=3.0, defense="none")
        spec = spec.with_overrides({
            "workloads.0": {"kind": "legitimate",
                            "params": {"rate_pps": 300.0, "poisson": True,
                                       "duration": 2.0}},
            "workloads.1.params.duration": 2.0,
        })
        packet_exec = ExperimentRunner().prepare(spec)
        packet_exec.run()
        train_exec = ExperimentRunner().prepare(
            spec.with_overrides({"engine.mode": "train"}))
        train_exec.run()
        packet_legit = packet_exec.legit_workloads()[0].generator
        train_legit = train_exec.legit_workloads()[0].generator
        assert train_legit.packets_offered == packet_legit.packets_offered
        assert train_legit.packets_sent == packet_legit.packets_sent
        assert train_legit.packets_offered > 0

    def test_onoff_train_mode_preserves_duty_cycle(self):
        spec = default_flood_spec(duration=8.0)
        spec = spec.with_overrides({
            "workloads.1": {"kind": "onoff",
                            "params": {"rate_pps": 500.0, "start": 0.0,
                                       "on_duration": 0.5,
                                       "off_duration": 0.5}},
            "workloads.0.params.duration": 7.0,
        })
        packet_exec = ExperimentRunner().prepare(spec)
        packet_exec.run()
        train_exec = ExperimentRunner().prepare(
            spec.with_overrides({"engine.mode": "train"}))
        train_exec.run()
        packet_attack = packet_exec.attack_workloads()[0].generator
        train_attack = train_exec.attack_workloads()[0].generator
        assert train_attack.cycles_completed == packet_attack.cycles_completed
        # Phase-clipped trains: emission counts agree exactly per duty cycle.
        assert train_attack.packets_sent == packet_attack.packets_sent


class TestOnePathCorners:
    @pytest.mark.parametrize("mode", ["packet", "train"])
    def test_host_outbound_guard_counts_a_suppressed_train_as_its_packets(
            self, mode):
        # A cooperating on-off attacker filters itself.  Its host's filter
        # table must count every suppressed *packet* in both engines; the
        # train engine used to count one check and one block per train
        # (11 blocked against 2,757 suppressed).
        spec = default_onoff_spec(duration=12.0).with_overrides(
            {"defense.params.non_cooperating": [], "engine.mode": mode})
        execution = ExperimentRunner().prepare(spec)
        execution.run()
        host = execution.attack_workloads()[0].attacker
        table = execution.backend.deployment.host_agent(host.name).outbound_filters
        assert host.stats_outbound_suppressed == 2757
        assert table.packets_blocked == host.stats_outbound_suppressed
        assert table.packets_checked == 3007
        assert sum(entry.bytes_blocked for entry in table.entries()) == 2757000

    def test_train_engine_with_max_train_1_is_pinned(self):
        # ``max_train = 1`` selects per-packet emission, so this corner now
        # sends lone packets over fluid links where it used to send one-tick
        # trains (which the pipe unwraps on entry).  No committed spec uses
        # it; the digest is the parent of PR 18's result document, so it
        # cannot change silently.
        spec = default_flood_spec(duration=4.0).with_overrides(
            {"engine.mode": "train", "engine.max_train": 1})
        execution = ExperimentRunner().prepare(spec)
        document = execution.run().to_dict()
        assert document["time_to_first_block"] == 0.16389920000000013
        assert document["attack_received_bps"] == 354285.71428571426
        assert document["workload_stats"][1]["packets_sent"] == 5251
        assert execution.sim.events_processed == 18245
        text = json.dumps(document, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ddb900d5c4da0a8feca037eaff789255735f6458689c5db4760b997b5649950c")
