"""``_Pipe`` state cross product: mode x up/down x tapped x diverted.

Four independent features swap a pipe's entry points; ``_Pipe._rebind`` is
the one place that decides what ``send`` / ``send_train`` / ``_deliver`` /
``_deliver_train`` / ``_emit_packet`` / ``_emit_train`` resolve to.  Every
final state is reached here through *every* order of the public calls that
lead to it (an up pipe both never-downed and cycled down→up), one packet —
and in train mode one train — is offered after each call, and at the end
each entry point must be the function the state calls for and every packet
must be accounted for: ``sent == delivered + dropped``.
"""

import itertools

import pytest

from repro.net.address import IPAddress
from repro.net.link import Link, _Pipe
from repro.net.packet import Packet
from repro.net.train import PacketTrain
from repro.sim.engine import Simulator


class _Sink:
    def __init__(self, name):
        self.name = name
        self.packets = 0

    def receive_packet(self, packet, link):
        self.packets += 1

    def receive_train(self, train, link):
        self.packets += train.count


SRC, DST = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.0.2")

#: How the pipe ends up administratively: never touched, cycled, or down.
ADMIN = {"never": (), "cycled": ("set_down", "set_up"), "down": ("set_down",)}


def _orders(train, tapped, diverted, admin):
    """Every order of the calls reaching the state (down before up)."""
    calls = (("enable_train_mode",) * train + ("tap",) * tapped
             + ("divert",) * diverted + ADMIN[admin])
    for order in set(itertools.permutations(calls)):
        if admin != "cycled" or order.index("set_down") < order.index("set_up"):
            yield order


def _resolved(pipe, name):
    entry = getattr(pipe, name)
    return getattr(entry, "__func__", entry).__name__


STATES = list(itertools.product((False, True), (False, True), (False, True),
                                sorted(ADMIN)))


@pytest.mark.parametrize("train,tapped,diverted,admin", STATES)
def test_every_order_reaches_the_same_pipe(train, tapped, diverted, admin):
    orders = sorted(_orders(train, tapped, diverted, admin))
    assert orders
    for order in orders:
        sim = Simulator()
        a, b = _Sink("a"), _Sink("b")
        link = Link(sim, a, b, bandwidth_bps=1e6, delay=0.01)
        seen = {"packet": 0, "train": 0}
        exported = []

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
                    packet_observer=lambda *_: seen.__setitem__(
                        "packet", seen["packet"] + 1),
                    train_observer=lambda _l, _s, t: seen.__setitem__(
                        "train", seen["train"] + t.count))
            elif call == "divert":
                for end in (a, b):
                    pipe = link.pipe_toward(end)
                    # A shard boundary re-enters the arrival on the far
                    # side; here the far side is the same pipe.
                    pipe.divert(lambda when, is_train, payload, pipe=pipe: (
                        exported.append(is_train),
                        pipe.inject(when, is_train, payload)))
            else:
                getattr(link, call)()
            offer()
        sim.run()

        down = admin == "down"
        want = {
            "send": ("_send_down" if down else
                     "_fluid_send_packet" if train else "send"),
            "send_train": "_send_train_down" if down else "send_train",
            "_deliver": "_traced_deliver" if tapped else "_deliver",
            "_deliver_train": ("_traced_deliver" if tapped
                               else "_deliver_train"),
            "_emit_packet": "_export_packet" if diverted else "_emit_packet",
            "_emit_train": "_export_train" if diverted else "_emit_train",
        }
        for end, sink in ((a, a), (b, b)):
            pipe = link.pipe_toward(end)
            assert isinstance(pipe, _Pipe)
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
        if not diverted:
            assert exported == []


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
