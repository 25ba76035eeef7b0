"""Unit tests for attack and legitimate-traffic generators."""

import hashlib

import pytest

from repro.attacks.flood import FloodAttack, ProtocolSwitchingAttack, SpoofedFloodAttack
from repro.attacks.legitimate import LegitimateTraffic, PoissonTraffic
from repro.attacks.onoff import OnOffAttack
from repro.attacks.zombies import ZombieArmy
from repro.net.flowlabel import FlowLabel
from repro.net.link import Link
from repro.router.filter_table import FilterTable
from repro.router.nodes import Host
from repro.sim.engine import Simulator
from repro.sim.randomness import SeededRandom
from repro.topology.figure1 import build_figure1
from repro.topology.tree import build_dumbbell


class TestFloodAttack:
    def test_constant_rate_emission(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=100.0)
        attack.start()
        figure1.sim.run(until=1.0)
        assert 95 <= attack.packets_sent <= 105

    def test_packets_arrive_at_victim(self):
        figure1 = build_figure1()
        received = []
        figure1.g_host.on_receive(received.append)
        FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=100.0).start()
        figure1.sim.run(until=1.0)
        assert len(received) > 50

    def test_duration_limits_the_attack(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=100.0, duration=0.5)
        attack.start()
        figure1.sim.run(until=2.0)
        assert 45 <= attack.packets_sent <= 55
        assert not attack.active

    def test_stop_flow_callback_matches_own_label(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=100.0)
        attack.start()
        other = FlowLabel.between("9.9.9.9", figure1.g_host.address)
        assert not attack.stop_flow_callback(other)
        assert attack.active
        assert attack.stop_flow_callback(attack.flow_label)
        assert not attack.active

    def test_offered_rate(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=1000.0, packet_size=500)
        assert attack.offered_rate_bps == 4e6

    def test_invalid_rate_rejected(self):
        figure1 = build_figure1()
        with pytest.raises(ValueError):
            FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=0.0)


class TestSpoofedFlood:
    def test_packets_carry_forged_sources(self):
        figure1 = build_figure1()
        received = []
        figure1.g_host.on_receive(received.append)
        attack = SpoofedFloodAttack(figure1.b_host, figure1.g_host.address,
                                    rate_pps=100.0, rng=SeededRandom(1))
        attack.start()
        figure1.sim.run(until=0.5)
        assert received
        assert all(p.is_spoofed for p in received)
        assert all(p.true_source == figure1.b_host.address for p in received)
        assert len({p.src for p in received}) > 1

    def test_spoof_pool_restricts_sources(self):
        figure1 = build_figure1()
        received = []
        figure1.g_host.on_receive(received.append)
        pool = ["1.1.1.1", "2.2.2.2"]
        attack = SpoofedFloodAttack(figure1.b_host, figure1.g_host.address,
                                    rate_pps=100.0, spoof_pool=pool,
                                    rng=SeededRandom(1))
        attack.start()
        figure1.sim.run(until=0.5)
        assert {str(p.src) for p in received}.issubset(set(pool))


class TestProtocolSwitching:
    def test_variants_rotate(self):
        figure1 = build_figure1()
        received = []
        figure1.g_host.on_receive(received.append)
        attack = ProtocolSwitchingAttack(figure1.b_host, figure1.g_host.address,
                                         rate_pps=100.0, switch_interval=0.5)
        attack.start()
        figure1.sim.run(until=3.0)
        assert attack.switches >= 4
        seen_protocols = {(p.protocol, p.dst_port) for p in received}
        assert len(seen_protocols) >= 3

    def test_per_incarnation_stop_does_not_stop_next_variant(self):
        figure1 = build_figure1()
        attack = ProtocolSwitchingAttack(figure1.b_host, figure1.g_host.address,
                                         rate_pps=100.0, switch_interval=0.5)
        attack.start()
        figure1.sim.run(until=0.2)
        assert attack.stop_flow_callback(attack.current_label)
        figure1.sim.run(until=2.0)
        # The switcher revives emission with the next protocol variant.
        assert attack.switches >= 1
        assert attack.packets_sent > 20


class TestOnOffAttack:
    def test_alternates_between_phases(self):
        figure1 = build_figure1()
        attack = OnOffAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=100.0, on_duration=0.5, off_duration=0.5)
        attack.start()
        figure1.sim.run(until=2.1)
        assert attack.cycles_completed >= 2
        # Roughly half the time is silent.
        assert 90 <= attack.packets_sent <= 130

    def test_cycles_limit(self):
        figure1 = build_figure1()
        attack = OnOffAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=100.0, on_duration=0.2, off_duration=0.2,
                             cycles=2)
        attack.start()
        figure1.sim.run(until=5.0)
        assert attack.cycles_completed == 2
        assert attack.packets_sent <= 45

    def test_stop_aborts(self):
        figure1 = build_figure1()
        attack = OnOffAttack(figure1.b_host, figure1.g_host.address, rate_pps=100.0)
        attack.start()
        figure1.sim.run(until=0.3)
        attack.stop()
        sent = attack.packets_sent
        figure1.sim.run(until=3.0)
        assert attack.packets_sent == sent

    def test_invalid_durations_rejected(self):
        figure1 = build_figure1()
        with pytest.raises(ValueError):
            OnOffAttack(figure1.b_host, figure1.g_host.address, on_duration=0.0)


class TestZombieArmy:
    def test_army_wide_emission_and_labels(self):
        dumbbell = build_dumbbell(sources=5)
        army = ZombieArmy(dumbbell.sources, dumbbell.victim.address,
                          rate_pps_per_zombie=50.0)
        army.start()
        dumbbell.sim.run(until=1.0)
        assert len(army) == 5
        assert army.packets_sent >= 5 * 45
        assert len(army.flow_labels) == 5
        assert army.active_count == 5
        army.stop()
        assert army.active_count == 0

    def test_spoofed_army(self):
        dumbbell = build_dumbbell(sources=3)
        received = []
        dumbbell.victim.on_receive(received.append)
        army = ZombieArmy(dumbbell.sources, dumbbell.victim.address,
                          rate_pps_per_zombie=50.0, spoofed=True,
                          rng=SeededRandom(2))
        army.start()
        dumbbell.sim.run(until=0.5)
        assert received
        assert all(p.is_spoofed for p in received)

    def test_start_jitter_spreads_start_times(self):
        dumbbell = build_dumbbell(sources=4)
        army = ZombieArmy(dumbbell.sources, dumbbell.victim.address,
                          rate_pps_per_zombie=10.0, start_jitter=1.0,
                          rng=SeededRandom(3))
        starts = {attack.start_time for attack in army.attacks}
        assert len(starts) > 1

    def test_empty_army_rejected(self):
        dumbbell = build_dumbbell(sources=1)
        with pytest.raises(ValueError):
            ZombieArmy([], dumbbell.victim.address)


class TestBuildTimeRefusals:
    """A source refuses an impossible packet size or emission window when
    it is built: a negative size used to report negative bit rates, and a
    negative duration died as a scheduling error once the run started."""

    BUILDERS = {
        "flood": lambda f, **kw: FloodAttack(f.b_host, f.g_host.address, **kw),
        "spoofed": lambda f, **kw: SpoofedFloodAttack(
            f.b_host, f.g_host.address, **kw),
        "legitimate": lambda f, **kw: LegitimateTraffic(
            f.b_host, f.g_host.address, **kw),
        "poisson": lambda f, **kw: PoissonTraffic(
            f.b_host, f.g_host.address, **kw),
        "zombies": lambda f, **kw: ZombieArmy([f.b_host], f.g_host.address,
                                              **kw),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_negative_duration_refused(self, name):
        with pytest.raises(ValueError, match=r"^duration must be >= 0, got -1"):
            self.BUILDERS[name](build_figure1(), duration=-1.0)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("size", [0, -5])
    def test_non_positive_packet_size_refused(self, name, size):
        with pytest.raises(ValueError,
                           match=f"^packet_size must be positive, got {size}$"):
            self.BUILDERS[name](build_figure1(), packet_size=size)

    def test_onoff_non_positive_packet_size_refused(self):
        figure1 = build_figure1()
        with pytest.raises(ValueError, match="^packet_size must be positive"):
            OnOffAttack(figure1.b_host, figure1.g_host.address, packet_size=0)

    def test_zero_duration_builds_and_emits_nothing(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=100.0, start_time=0.5, duration=0.0)
        attack.start()
        figure1.sim.run(until=1.0)
        assert attack.packets_offered == 0
        assert not attack.active


class TestLegitimateTraffic:
    def test_goodput_accounting(self):
        figure1 = build_figure1(extra_good_hosts=1)
        sender = figure1.topology.node("G_host2")
        traffic = LegitimateTraffic(sender, figure1.g_host.address, rate_pps=100.0)
        traffic.attach_receiver(figure1.g_host)
        traffic.start()
        figure1.sim.run(until=1.0)
        assert traffic.packets_sent >= 95
        assert traffic.delivery_ratio > 0.9
        assert traffic.goodput_bps(1.0) > 0.5e6

    def test_duration_bounds_traffic(self):
        figure1 = build_figure1(extra_good_hosts=1)
        sender = figure1.topology.node("G_host2")
        traffic = LegitimateTraffic(sender, figure1.g_host.address,
                                    rate_pps=100.0, duration=0.5)
        traffic.start()
        figure1.sim.run(until=2.0)
        assert traffic.packets_sent <= 55

    def test_poisson_traffic_rate_is_approximately_right(self):
        figure1 = build_figure1(extra_good_hosts=1)
        sender = figure1.topology.node("G_host2")
        traffic = PoissonTraffic(sender, figure1.g_host.address, rate_pps=200.0,
                                 rng=SeededRandom(5))
        traffic.attach_receiver(figure1.g_host)
        traffic.start()
        figure1.sim.run(until=2.0)
        assert 300 <= traffic.packets_sent <= 500

    def test_poisson_stop(self):
        figure1 = build_figure1(extra_good_hosts=1)
        sender = figure1.topology.node("G_host2")
        traffic = PoissonTraffic(sender, figure1.g_host.address, rate_pps=100.0,
                                 rng=SeededRandom(5))
        traffic.start()
        figure1.sim.run(until=0.5)
        traffic.stop()
        sent = traffic.packets_sent
        figure1.sim.run(until=2.0)
        assert traffic.packets_sent == sent


class _StampSink:
    """The far end of the host's access link: keeps every arriving packet's
    emission stamp and claimed source."""

    name = "sink"

    def __init__(self):
        self.stamps = []

    def receive_packet(self, packet, link, count=1):
        self.stamps += [(packet.created_at, packet.src.value)] * count

    def receive_train(self, train, link):
        self.receive_packet(train.template, link, train.count)


#: generator -> (packets_sent, packets_suppressed, packets_offered, first
#: and last emission time, sha256[:16] of repr([(created_at, src), ...])),
#: recorded on the parent of PR 18 (commit c132f81) from its ``_emit`` /
#: ``_poisson_emit`` per-packet paths: 2 s, the host's outbound guard
#: refusing everything in [0.6, 0.8) (here: an outbound filter installed
#: at 0.6 for 0.2 s).
PER_PACKET_EMISSION = {
    "flood": (521, 80, 601, 0.1, 1.599999999999977, "04d6cd83816ca70c"),
    "spoofed": (539, 61, 600, 0.0, 1.9966666666666857, "8bf42b7c2b211fed"),
    "legitimate": (438, 50, 488, 0.05, 1.9980000000000016, "97d96491ba0841b5"),
    "poisson": (316, 42, 358, 0.0, 1.673094067570273, "79c9b90f159ac84e"),
    "onoff": (500, 100, 600, 0.1, 1.8980000000000004, "c5cca239866f3ac2"),
}

GENERATORS = {
    "flood": lambda h: FloodAttack(h, "10.0.1.1", rate_pps=400.0,
                                   start_time=0.1, duration=1.5),
    "spoofed": lambda h: SpoofedFloodAttack(h, "10.0.1.1", rate_pps=300.0,
                                            rng=SeededRandom(7)),
    "legitimate": lambda h: LegitimateTraffic(h, "10.0.1.1", rate_pps=250.0,
                                              start_time=0.05),
    "poisson": lambda h: PoissonTraffic(h, "10.0.1.1", rate_pps=200.0,
                                        duration=1.7, rng=SeededRandom(9)),
    "onoff": lambda h: OnOffAttack(h, "10.0.1.1", rate_pps=500.0,
                                   on_duration=0.3, off_duration=0.2,
                                   start_time=0.1),
}


class TestOneEmissionPath:
    """Every generator emits through ``TrafficSource._emit``; at the default
    ``max_train = 1`` that path must be the old per-packet one, tick for
    tick and draw for draw."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_default_max_train_reproduces_per_packet_emission(self, name):
        sim = Simulator()
        host = Host(sim, "h", "10.0.0.1")
        sink = _StampSink()
        link = Link(sim, host, sink, bandwidth_bps=1e9, delay=0.001)
        host.attach_link(link)
        host.set_gateway(link)
        table = FilterTable(capacity=None, clock=sim.clock)
        sim.call_at(0.6, table.install, FlowLabel.between(None, "10.0.1.1"), 0.2)
        host.outbound_filter = table
        generator = GENERATORS[name](host)
        generator.start()
        sim.run(until=2.0)
        digest = hashlib.sha256(repr(sink.stamps).encode()).hexdigest()[:16]
        assert (generator.packets_sent, generator.packets_suppressed,
                generator.packets_offered, sink.stamps[0][0],
                sink.stamps[-1][0], digest) == PER_PACKET_EMISSION[name]

    def test_train_and_packet_emission_offer_the_same_packets(self):
        # One path, two schedulers: the same ticks leave the host whether
        # they are emitted one by one or 16 to a train.
        offered = []
        for max_train in (1, 16):
            sim = Simulator()
            host = Host(sim, "h", "10.0.0.1")
            sink = _StampSink()
            link = Link(sim, host, sink, bandwidth_bps=1e9, delay=0.001)
            link.enable_train_mode()
            host.attach_link(link)
            host.set_gateway(link)
            flood = FloodAttack(host, "10.0.1.1", rate_pps=400.0, start_time=0.1,
                                duration=1.5, max_train=max_train, horizon=2.0)
            flood.start()
            sim.run(until=2.0)
            offered.append((flood.packets_sent, flood.packets_suppressed,
                            len(sink.stamps)))
        assert offered[0] == offered[1] == (601, 0, 601)
