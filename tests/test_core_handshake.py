"""Unit tests for the 3-way-handshake manager."""

from repro.core.handshake import HandshakeManager
from repro.core.messages import FilteringRequest, VerificationReply
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.sim.engine import Simulator
from repro.sim.randomness import SeededRandom


VICTIM = IPAddress.parse("10.0.1.1")
GATEWAY = IPAddress.parse("10.0.9.1")
LABEL = FlowLabel.between("10.0.0.1", "10.0.1.1")


def make_request():
    return FilteringRequest(label=LABEL, timeout=60.0, victim=VICTIM)


class Recorder:
    def __init__(self):
        self.confirmed = []
        self.failed = []

    def on_confirmed(self, request):
        self.confirmed.append(request)

    def on_failed(self, request, reason):
        self.failed.append((request, reason))


class TestHandshake:
    def test_begin_produces_query_with_nonce_and_querier(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        query = manager.begin(request, GATEWAY,
                              recorder.on_confirmed, recorder.on_failed)
        assert query.label == LABEL
        assert query.querier == GATEWAY
        assert query.request_id == request.request_id
        assert manager.pending_count == 1
        assert manager.is_pending(request.request_id)

    def test_correct_reply_confirms(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        query = manager.begin(request, GATEWAY,
                              recorder.on_confirmed, recorder.on_failed)
        reply = query.matching_reply(confirmed=True, responder=VICTIM)
        assert manager.handle_reply(reply)
        assert recorder.confirmed == [request]
        assert manager.pending_count == 0
        assert manager.confirmed == 1

    def test_negative_reply_rejects(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        query = manager.begin(request, GATEWAY,
                              recorder.on_confirmed, recorder.on_failed)
        reply = query.matching_reply(confirmed=False, responder=VICTIM)
        assert manager.handle_reply(reply)
        assert recorder.confirmed == []
        assert len(recorder.failed) == 1
        assert manager.rejected == 1

    def test_wrong_nonce_is_ignored(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        manager.begin(request, GATEWAY,
                      recorder.on_confirmed, recorder.on_failed)
        forged = VerificationReply(label=LABEL, nonce=999, confirmed=True,
                                   responder=VICTIM, request_id=request.request_id)
        assert not manager.handle_reply(forged)
        assert manager.pending_count == 1
        assert recorder.confirmed == []

    def test_wrong_label_is_ignored(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        query = manager.begin(request, GATEWAY,
                              recorder.on_confirmed, recorder.on_failed)
        forged = VerificationReply(label=FlowLabel.between("9.9.9.9", "10.0.1.1"),
                                   nonce=query.nonce, confirmed=True,
                                   responder=VICTIM, request_id=request.request_id)
        assert not manager.handle_reply(forged)
        assert manager.pending_count == 1

    def test_stray_reply_for_unknown_request(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        stray = VerificationReply(label=LABEL, nonce=1, confirmed=True,
                                  responder=VICTIM, request_id=999)
        assert not manager.handle_reply(stray)

    def test_timeout_fails_the_verification(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=0.5)
        recorder = Recorder()
        request = make_request()
        manager.begin(request, GATEWAY,
                      recorder.on_confirmed, recorder.on_failed)
        sim.run(until=1.0)
        assert len(recorder.failed) == 1
        assert manager.timed_out == 1
        assert manager.pending_count == 0

    def test_late_reply_after_timeout_is_ignored(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=0.5)
        recorder = Recorder()
        request = make_request()
        query = manager.begin(request, GATEWAY,
                              recorder.on_confirmed, recorder.on_failed)
        sim.run(until=1.0)
        reply = query.matching_reply(confirmed=True, responder=VICTIM)
        assert not manager.handle_reply(reply)
        assert recorder.confirmed == []

    def test_duplicate_begin_reuses_nonce(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        request = make_request()
        query1 = manager.begin(request, GATEWAY,
                               recorder.on_confirmed, recorder.on_failed)
        query2 = manager.begin(request, GATEWAY,
                               recorder.on_confirmed, recorder.on_failed)
        assert query1.nonce == query2.nonce
        assert manager.pending_count == 1

    def test_cancel_removes_pending_without_callbacks(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=0.5)
        recorder = Recorder()
        request = make_request()
        manager.begin(request, GATEWAY,
                      recorder.on_confirmed, recorder.on_failed)
        manager.cancel(request.request_id)
        sim.run(until=1.0)
        assert recorder.failed == []
        assert manager.pending_count == 0

    def test_nonces_differ_across_requests(self):
        sim = Simulator()
        manager = HandshakeManager(sim, SeededRandom(1), timeout=1.0)
        recorder = Recorder()
        nonces = set()
        for _ in range(50):
            query = manager.begin(make_request(), GATEWAY,
                                  recorder.on_confirmed, recorder.on_failed)
            nonces.add(query.nonce)
        assert len(nonces) == 50
