"""``_Pipe`` state cross product: mode x up/down x tapped.

Three independent features swap a pipe's entry points; ``_Pipe._rebind`` is
the one place that decides what ``send`` / ``send_train`` /
``_deliver_train`` resolve to, and what a delivery's receiver (``_sink``)
is.  Every
final state is reached here through *every* order of the public calls that
lead to it (an up pipe both never-downed and cycled down→up), one packet —
and in train mode one train — is offered after each call, and at the end
each entry point must be the function the state calls for and every packet
must be accounted for: ``sent == delivered + dropped``.
"""

import dataclasses
import itertools

import pytest

from repro.net.address import IPAddress
from repro.net.link import Link, LinkStats, _Pipe
from repro.net.packet import Packet
from repro.net.queues import QueueStats
from repro.net.train import PacketTrain
from repro.sim.engine import Simulator


class _Sink:
    def __init__(self, name):
        self.name = name
        self.packets = 0

    def receive_packet(self, packet, link):
        link.arrived(self, packet)
        self.packets += 1

    def receive_train(self, train, link):
        link.arrived(self, train.template, train.count)
        self.packets += train.count


SRC, DST = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.0.2")

#: How the pipe ends up administratively: never touched, cycled, or down.
ADMIN = {"never": (), "cycled": ("set_down", "set_up"), "down": ("set_down",)}


def _orders(train, tapped, admin):
    """Every order of the calls reaching the state (down before up)."""
    calls = ("enable_train_mode",) * train + ("tap",) * tapped + ADMIN[admin]
    for order in set(itertools.permutations(calls)):
        if admin != "cycled" or order.index("set_down") < order.index("set_up"):
            yield order


def _resolved(pipe, name):
    entry = getattr(pipe, name)
    return getattr(entry, "__func__", entry).__name__


def _tap(observe):
    """A train tap wrapper factory whose wrapper calls ``observe(train)``
    and then delivers the train."""
    def wrap(link, sink, deliver):
        def tapped(payload):
            observe(payload)
            deliver(payload)
        return tapped
    return wrap


def _packet_tap(observe):
    """A packet tap wrapper factory whose receiver calls ``observe(packet)``
    and then hands the packet to the sink."""
    def wrap(link, sink):
        def tapped(packet, link):
            observe(packet)
            sink.receive_packet(packet, link)
        return tapped
    return wrap


STATES = list(itertools.product((False, True), (False, True), sorted(ADMIN)))


@pytest.mark.parametrize("train,tapped,admin", STATES)
def test_every_order_reaches_the_same_pipe(train, tapped, admin):
    orders = sorted(_orders(train, tapped, admin))
    assert orders
    for order in orders:
        sim = Simulator()
        a, b = _Sink("a"), _Sink("b")
        link = Link(sim, a, b, bandwidth_bps=1e6, delay=0.01)
        seen = {"packet": 0, "train": 0}

        def offer():
            for sender in (a, b):
                link.send(Packet.data(SRC, DST, size=500, created_at=sim.now),
                          sender)
                if "enable_train_mode" in order[:step]:
                    template = Packet.data(SRC, DST, size=500,
                                           created_at=sim.now)
                    link.send_train(PacketTrain(template, 4, 0.001), sender)

        step = 0
        offer()
        for step, call in enumerate(order, start=1):
            if call == "tap":
                link.tap(
                    _packet_tap(lambda _: seen.__setitem__(
                        "packet", seen["packet"] + 1)),
                    _tap(lambda t: seen.__setitem__(
                        "train", seen["train"] + t.count)))
            else:
                getattr(link, call)()
            offer()
        sim.run()

        down = admin == "down"
        want = {
            "send": ("_send_down" if down else
                     "_fluid_send_packet" if train else "send"),
            "send_train": "_send_train_down" if down else "send_train",
            "_deliver_train": "tapped" if tapped else "_deliver_train",
        }
        for end, sink in ((a, a), (b, b)):
            pipe = link.pipe_toward(end)
            assert isinstance(pipe, _Pipe)
            assert _resolved(pipe._sink, "receive_packet") == (
                "tapped" if tapped else "receive_packet"), order
            assert (pipe._sink is sink) == (not tapped), order
            for name, function in want.items():
                assert _resolved(pipe, name) == function, (order, name)
                # default state keeps no instance attribute at all
                assert (name in vars(pipe)) == (function != name), (order, name)
            stats = pipe.stats
            assert stats.packets_sent == \
                stats.packets_delivered + stats.packets_dropped, order
            assert stats.packets_delivered == sink.packets, order
            assert stats.packets_dropped_down <= stats.packets_dropped
            if admin == "never":
                assert stats.packets_dropped_down == 0
            else:
                # at least the packet offered right after set_down
                assert stats.packets_dropped_down >= 1, order
        assert link.up == (not down)
        if not tapped:
            assert seen == {"packet": 0, "train": 0}


def test_down_link_stays_down_when_train_mode_is_enabled():
    """The defect the explicit state fixes: ``enable_train_mode`` on a
    down pipe used to overwrite ``_send_down``, and ``set_up`` then
    restored the per-packet ``send`` onto a train-mode pipe."""
    sim = Simulator()
    a, b = _Sink("a"), _Sink("b")
    link = Link(sim, a, b, bandwidth_bps=1e6, delay=0.01)
    packet = Packet.data(SRC, DST, size=500, created_at=0.0)
    link.set_down()
    link.enable_train_mode()
    assert link.send(packet, a) is False
    assert link.stats_toward(b).packets_dropped_down == 1
    link.set_up()
    assert _resolved(link.pipe_toward(b), "send") == "_fluid_send_packet"
    assert link.send(packet, a) is True
    sim.run()
    assert b.packets == 1


# ----------------------------------------------------------------------
# A link builds its two pipes on first use: every state change an idle
# link can see before that must leave the same counters as a link whose
# pipes were built at construction.
# ----------------------------------------------------------------------
def _idle_link(engine, eager):
    sim = Simulator()
    a, b = _Sink("a"), _Sink("b")
    link = Link(sim, a, b, bandwidth_bps=1e6, delay=0.01,
                queue_capacity_bytes=4_000)
    if eager:
        link.pipe_toward(b)
    assert (link._pipe_to_b is not None) == eager
    if engine == "train":
        link.enable_train_mode()
    return sim, a, b, link


def _offer(sim, link, engine):
    """Three lone packets each way, and in train mode a congesting train."""
    for sender in (link.a, link.b):
        for _ in range(3):
            link.send(Packet.data(SRC, DST, size=500, created_at=sim.now),
                      sender)
        if engine == "train":
            template = Packet.data(SRC, DST, size=500, created_at=sim.now)
            link.send_train(PacketTrain(template, 8, 0.001), sender)


def _set_down_then_send(sim, link, engine, seen):
    link.set_down()
    _offer(sim, link, engine)
    sim.fire_at(0.25, link.set_up)
    sim.fire_at(0.5, _offer, sim, link, engine)


def _tap_then_send(sim, link, engine, seen):
    link.tap(_packet_tap(lambda _: seen.append(1)),
             _tap(lambda train: seen.append(train.count)))
    sim.fire_at(0.25, _offer, sim, link, engine)


def _train_mode_then_send_later(sim, link, engine, seen):
    link.enable_train_mode()
    sim.fire_at(0.25, _offer, sim, link, "train")


def _read_then_send(sim, link, engine, seen):
    for end in (link.a, link.b):
        stats = link.stats_toward(end)
        queue = link.queue_toward(end)
        assert stats.packets_sent == stats.packets_dropped == 0
        assert queue.stats.enqueued == len(queue) == 0
        assert queue.capacity_bytes == 4_000
        seen.append(stats.packets_delivered)
    sim.fire_at(0.25, _offer, sim, link, engine)


IDLE_CASES = {
    "set_down_then_send": _set_down_then_send,
    "tap_then_send": _tap_then_send,
    "train_mode_then_send_later": _train_mode_then_send_later,
    "read_then_send": _read_then_send,
}


def _counters(case, engine, eager):
    sim, a, b, link = _idle_link(engine, eager)
    seen = []
    IDLE_CASES[case](sim, link, engine, seen)
    if not eager:
        # set_down builds the pipes; a recorded mode, taps and reads do not
        assert (link._pipe_to_b is None) == (case in (
            "train_mode_then_send_later", "tap_then_send", "read_then_send"))
    sim.run()
    return ([(dataclasses.astuple(link.stats_toward(end)),
              dataclasses.astuple(link.queue_toward(end).stats), end.packets)
             for end in (a, b)], seen, link.up)


@pytest.mark.parametrize("engine", ("packet", "train"))
@pytest.mark.parametrize("case", sorted(IDLE_CASES))
def test_an_idle_link_counts_like_one_built_eagerly(case, engine):
    lazy = _counters(case, engine, eager=False)
    assert lazy == _counters(case, engine, eager=True)
    directions, _, _ = lazy
    assert all(stats[0] > 0 for stats, _, _ in directions)


@pytest.mark.parametrize("engine", ("packet", "train"))
def test_reading_an_idle_link_builds_nothing(engine):
    sim, a, b, link = _idle_link(engine, eager=False)
    for end in (a, b):
        assert link.stats_toward(end) == LinkStats()
        assert link.queue_toward(end).stats == QueueStats()
        assert link.stats_toward(end) is not link.stats_toward(end)
    with pytest.raises(ValueError):
        link.stats_toward(_Sink("c"))
    assert link._pipe_to_b is None and link._pipe_to_a is None
    _offer(sim, link, engine)
    assert link.stats_toward(b) is link.pipe_toward(b).stats
    assert link.queue_toward(a) is link.pipe_toward(a).queue
