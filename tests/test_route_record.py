"""The route-record path AITF reads, from stamp to request to reconciliation.

Border routers stamp every packet they forward (``Packet.route_record``);
the victim's detector reads the shim off a delivered attack packet into its
filtering request; the victim's gateway designates each round's gateway
from that path and reconciles it with the shim of a reappearing flow.
Section IV-B's worked example rests on this: with a route-record shim the
traceback time is zero, so Ttmp covers only the handshake.
"""

import pytest

from repro.core.detection import ExplicitDetector
from repro.core.events import EventType
from repro.core.gateway_agent import Phase, RequestState
from repro.core.messages import FilteringRequest, RequestRole
from repro.experiments import ExperimentRunner
from repro.experiments.spec import default_flood_spec
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet

from tests.conftest import make_deployed_figure1


PATH = ("B_gw1", "B_gw2", "B_gw3", "G_gw3", "G_gw2", "G_gw1")


def delivered_paths(receiver):
    paths = []
    receiver.on_receive(lambda packet: paths.append(packet.recorded_path))
    return paths


def recording_requests(agent):
    """Wrap ``agent.request_filtering`` so every call's keywords are kept."""
    calls = []
    original = agent.request_filtering

    def request_filtering(label, **kwargs):
        calls.append(kwargs)
        return original(label, **kwargs)

    agent.request_filtering = request_filtering
    return calls


def victim_records(gateway):
    """The gateway's request states in the victim's-gateway role."""
    return [state for (role, _), state in gateway._records.items()
            if role is RequestRole.TO_VICTIM_GATEWAY]


def stamped(src, dst, path):
    packet = Packet.data(src, dst)
    for name in path:
        packet.stamp_route(name)
    return packet


class TestShimOnFigure1:
    def test_one_attack_packet_is_enough_to_reach_the_attackers_gateway(self):
        """Traceback time is zero: the first delivered attack packet names
        the attacker's gateway, and the victim's gateway propagates to it."""
        env = make_deployed_figure1()
        figure1 = env.figure1
        detector = ExplicitDetector(env.deployment.host_agent("G_host"))
        detector.mark_undesired(figure1.b_host.address)
        figure1.b_host.send(Packet.data(figure1.b_host.address, figure1.g_host.address))
        env.sim.run(until=1.0)
        assert detector.detections == 1
        sent = env.log.last(EventType.REQUEST_SENT, node="G_gw1")
        assert sent.details["role"] == RequestRole.TO_ATTACKER_GATEWAY.value
        assert sent.details["target"] == "B_gw1"
        assert sent.details["round"] == 1
        (state,) = victim_records(env.deployment.gateway_agent("G_gw1"))
        assert state.attack_path == PATH

    def test_spoofed_source_is_recorded_along_its_true_path(self):
        env = make_deployed_figure1()
        figure1 = env.figure1
        paths = delivered_paths(figure1.g_host)
        figure1.b_host.send(Packet.data(IPAddress.parse("10.9.9.9"), figure1.g_host.address,
                                        spoofed_src=figure1.b_host.address))
        env.sim.run(until=2.0)
        assert paths == [PATH]

    def test_reply_direction_records_the_reverse_path(self):
        env = make_deployed_figure1()
        figure1 = env.figure1
        paths = delivered_paths(figure1.b_host)
        figure1.g_host.send(Packet.data(figure1.g_host.address, figure1.b_host.address))
        env.sim.run(until=2.0)
        assert paths == [tuple(reversed(PATH))]


class TestPartialStamping:
    def test_record_skips_routers_that_do_not_stamp(self):
        env = make_deployed_figure1()
        figure1 = env.figure1
        for name in ("B_gw2", "G_gw3"):
            figure1.topology.nodes[name].stamp_route_record = False
        paths = delivered_paths(figure1.g_host)
        figure1.b_host.send(Packet.data(figure1.b_host.address, figure1.g_host.address))
        env.sim.run(until=2.0)
        assert paths == [("B_gw1", "B_gw3", "G_gw2", "G_gw1")]

    @pytest.mark.parametrize("locus, stamping", [
        ("all", set(PATH)),
        ("victim-stub", {"G_gw1"}),
    ])
    def test_only_deployed_gateways_stamp(self, locus, stamping):
        spec = default_flood_spec(duration=1.0, defense_params={"deployment": locus})
        execution = ExperimentRunner().prepare(spec)
        routers = execution.handle.topology.border_routers()
        assert {r.name for r in routers if r.stamp_route_record} == stamping

    def test_victim_stub_request_names_only_the_victims_gateway(self):
        spec = default_flood_spec(duration=1.0,
                                  defense_params={"deployment": "victim-stub"})
        execution = ExperimentRunner().prepare(spec)
        execution.run()
        gateway = execution.backend.deployment.gateway_agent("G_gw1")
        paths = {state.attack_path for state in victim_records(gateway)}
        assert paths == {("G_gw1",)}


class TestDetectorReadsTheShim:
    def setup_env(self, redetect_gap=None):
        env = make_deployed_figure1()
        agent = env.deployment.host_agent("G_host")
        calls = recording_requests(agent)
        detector = ExplicitDetector(agent, redetect_gap=redetect_gap)
        detector.mark_undesired(env.figure1.b_host.address)
        return env, detector, calls

    def test_request_carries_the_delivered_packets_record(self):
        env, detector, calls = self.setup_env()
        figure1 = env.figure1
        detector.observe(stamped(figure1.b_host.address, figure1.g_host.address,
                                 ("B_gw1", "B_gw2", "G_gw1")))
        assert calls == [{"attack_path": ("B_gw1", "B_gw2", "G_gw1")}]

    def test_redetection_requests_along_the_fresh_record(self):
        env, detector, calls = self.setup_env(redetect_gap=0.5)
        figure1 = env.figure1
        src, dst = figure1.b_host.address, figure1.g_host.address
        detector.observe(stamped(src, dst, PATH))
        rerouted = ("B_gw1", "T1", "G_gw1")
        env.sim.call_at(1.0, detector.observe, stamped(src, dst, rerouted))
        env.sim.run(until=1.5)
        assert detector.redetections == 1
        assert calls[-1] == {"attack_path": rerouted, "force": True}

    def test_reappearance_within_the_gap_is_not_redetected(self):
        env, detector, calls = self.setup_env(redetect_gap=0.5)
        figure1 = env.figure1
        src, dst = figure1.b_host.address, figure1.g_host.address
        detector.observe(stamped(src, dst, PATH))
        env.sim.call_at(0.2, detector.observe, stamped(src, dst, ("B_gw1", "G_gw1")))
        env.sim.run(until=0.5)
        assert detector.redetections == 0
        assert len(calls) == 1


class TestVictimGatewayReconcilesThePath:
    LABEL = FlowLabel.between("10.0.0.1", "10.0.1.1")

    def state(self, path=PATH, current_round=1):
        request = FilteringRequest(label=self.LABEL, timeout=30.0, attack_path=path)
        return RequestState(request=request, phase=Phase.WATCHING,
                            attack_path=path, current_round=current_round)

    def refresh(self, gateway_name, state, record):
        env = make_deployed_figure1()
        gateway = env.deployment.gateway_agent(gateway_name)
        changed = gateway._refresh_attack_path(
            state, stamped(IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.1.1"), record))
        return env, changed

    def test_missing_record_or_path_changes_nothing(self):
        state = self.state()
        assert self.refresh("G_gw1", state, ())[1] is False
        assert state.attack_path == PATH
        empty = self.state(path=())
        assert self.refresh("G_gw1", empty, ("T1", "G_gw1"))[1] is False
        assert empty.attack_path == ()

    def test_record_ending_elsewhere_is_partial_stamping(self):
        state = self.state()
        assert self.refresh("G_gw1", state, ("X_gw1", "X_gw2"))[1] is False
        assert state.attack_path == PATH

    def test_prefix_record_at_a_mid_path_gateway_is_consistent(self):
        """An escalated gateway sees only the record up to itself."""
        state = self.state()
        env, changed = self.refresh("G_gw2", state, PATH[:5])
        assert changed is False
        assert state.attack_path == PATH
        assert env.log.count(EventType.PATH_CHANGED) == 0

    def test_disagreeing_record_splices_and_restarts_the_rounds(self):
        state = self.state(current_round=4)
        state.escalations = 3
        state.phase = Phase.GAVE_UP
        env, changed = self.refresh("G_gw1", state, ("X_gw1", "G_gw1"))
        assert changed is True
        assert state.attack_path == ("X_gw1", "G_gw1")
        assert state.current_round == 2
        assert state.phase is Phase.WATCHING
        assert state.escalations == 0
        assert state.last_escalation_at == env.sim.now
        event = env.log.last(EventType.PATH_CHANGED, node="G_gw1")
        assert event.details["old_path"] == PATH
        assert event.details["new_path"] == ("X_gw1", "G_gw1")

    def test_splice_keeps_the_path_beyond_this_gateway(self):
        state = self.state(current_round=2)
        _, changed = self.refresh("G_gw2", state, ("T1", "T2", "G_gw2"))
        assert changed is True
        assert state.attack_path == ("T1", "T2", "G_gw2", "G_gw1")
        assert state.current_round == 2


class TestPathGeometry:
    def test_upstream_neighbour_on_the_path(self):
        env = make_deployed_figure1()
        g_gw1 = env.deployment.gateway_agent("G_gw1")
        assert g_gw1._upstream_on_path(PATH) == "G_gw2"
        assert g_gw1._upstream_on_path(("B_gw1", "B_gw2")) is None
        assert env.deployment.gateway_agent("B_gw1")._upstream_on_path(PATH) is None

    def test_request_without_a_path_is_rejected_by_the_victims_gateway(self):
        env = make_deployed_figure1()
        figure1 = env.figure1
        label = FlowLabel.between(figure1.b_host.address, figure1.g_host.address)
        request = env.deployment.host_agent("G_host").request_filtering(label)
        assert request.attack_path == ()
        assert request.designated_attacker_gateway is None
        env.sim.run(until=1.0)
        rejected = env.log.last(EventType.REQUEST_REJECTED, node="G_gw1")
        assert rejected.details["reason"] == "no attack path available"
        assert env.log.last(EventType.REQUEST_SENT, node="G_gw1") is None
