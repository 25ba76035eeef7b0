"""Integration tests for the security claims of Sections II-E and III-B.

The question these answer: can a malicious node abuse AITF to block
legitimate traffic between two other parties?  The paper's answer — no,
unless the malicious node is an on-path router, which could drop the traffic
anyway — is reproduced here against the real protocol implementation.
"""


from repro.attacks.legitimate import LegitimateTraffic
from repro.attacks.malicious import CompromisedRouterBehaviour, RequestForger
from repro.core.events import EventType
from repro.net.flowlabel import FlowLabel

from tests.conftest import make_deployed_figure1


def legit_flow_label(env):
    """The legitimate G_host -> B_host flow a forger wants blackholed."""
    return FlowLabel.between(env.figure1.g_host.address, env.figure1.b_host.address)


class TestForgedRequests:
    def test_off_path_forger_cannot_block_legitimate_traffic(self):
        """B_host forges a request asking G_gw1 to block G_host -> B_host... wait,
        the forger targets the *attacker's gateway* of the legitimate flow
        (G_gw1 for a G_host -> B_host flow) pretending the victim (B_host)
        asked for it.  The handshake query goes to the real B_host, which
        never asked, so the request dies."""
        env = make_deployed_figure1()
        # Legitimate traffic from G_host to B_host.
        legit = LegitimateTraffic(env.figure1.g_host, env.figure1.b_host.address,
                                  rate_pps=100.0)
        legit.attach_receiver(env.figure1.b_host)
        legit.start()
        # A forger sitting in B_net (off the G_gw1 side) asks G_gw1 to block it.
        forger_host = env.figure1.topology.add_host("M_host", "B_net")
        env.figure1.topology.connect(forger_host, env.figure1.b_gw1)
        env.figure1.topology.build_routes()
        forger = RequestForger(forger_host)
        reversed_path = tuple(reversed(env.figure1.attack_path))
        forger.forge_request(
            env.figure1.g_gw1.address,
            legit_flow_label(env),
            claimed_requestor="B_gw1",
            claimed_path=reversed_path,
            victim=env.figure1.b_host.address,
        )
        env.sim.run(until=5.0)
        # The legitimate flow was never blocked: no filter at G_gw1 matches it,
        # and delivery kept flowing the whole time.
        assert env.figure1.g_gw1.filter_table.occupancy == 0
        assert legit.delivery_ratio > 0.95
        # The handshake (or victim-side check) rejected the forgery.
        failed = env.log.count(EventType.HANDSHAKE_FAILED)
        rejected = env.log.count(EventType.REQUEST_REJECTED)
        assert failed + rejected >= 1

    def test_forged_request_to_victim_gateway_role_also_fails(self):
        env = make_deployed_figure1()
        legit = LegitimateTraffic(env.figure1.g_host, env.figure1.b_host.address,
                                  rate_pps=100.0)
        legit.attach_receiver(env.figure1.b_host)
        legit.start()
        forger_host = env.figure1.topology.add_host("M_host", "B_net")
        env.figure1.topology.connect(forger_host, env.figure1.b_gw1)
        env.figure1.topology.build_routes()
        from repro.core.messages import RequestRole
        forger = RequestForger(forger_host)
        forger.forge_request(
            env.figure1.g_gw1.address,
            legit_flow_label(env),
            claimed_requestor="M_host",
            role=RequestRole.TO_VICTIM_GATEWAY,
            victim=env.figure1.b_host.address,
        )
        env.sim.run(until=3.0)
        assert env.figure1.g_gw1.filter_table.occupancy == 0
        assert legit.delivery_ratio > 0.95

    def test_forger_cannot_echo_the_nonce_it_never_sees(self):
        env = make_deployed_figure1()
        forger_host = env.figure1.topology.add_host("M_host", "B_net")
        env.figure1.topology.connect(forger_host, env.figure1.b_gw1)
        env.figure1.topology.build_routes()
        forger = RequestForger(forger_host)
        forger.forge_request(
            env.figure1.g_gw1.address,
            legit_flow_label(env),
            claimed_requestor="B_gw1",
            victim=env.figure1.b_host.address,
        )
        env.sim.run(until=3.0)
        # Either the request never reached the handshake stage, or the
        # verification ended without a confirmation.
        assert sum(event.node == "G_gw1" for event in
                   env.log.of_type(EventType.HANDSHAKE_CONFIRMED)) == 0

    def test_genuine_victim_request_still_works_alongside_forgeries(self):
        env = make_deployed_figure1()
        # Genuine request from B_host (the target of some unwanted flow from G_host).
        victim_agent = env.deployment.host_agent("B_host")
        label = legit_flow_label(env)
        reversed_path = tuple(reversed(env.figure1.attack_path))
        victim_agent.request_filtering(label, attack_path=reversed_path)
        env.sim.run(until=3.0)
        # The genuine request is honoured at the flow's attacker-side gateway (G_gw1).
        assert any(e.node == "G_gw1" for e in env.log.of_type(EventType.FILTER_INSTALLED))


class TestCompromisedOnPathRouter:
    def test_on_path_router_can_forge_confirmation(self):
        """The paper's conceded case: an on-path compromised router can abuse
        AITF — but it could just as well drop the packets, so nothing new."""
        env = make_deployed_figure1()
        legit = LegitimateTraffic(env.figure1.g_host, env.figure1.b_host.address,
                                  rate_pps=100.0)
        legit.attach_receiver(env.figure1.b_host)
        legit.start()
        # B_gw2 is on the G_host -> B_host path and is compromised.
        compromised = CompromisedRouterBehaviour(env.figure1.b_gw2)
        forger = RequestForger(env.figure1.b_host)  # colluding end-host
        reversed_path = tuple(reversed(env.figure1.attack_path))
        forger.forge_request(
            env.figure1.g_gw1.address,
            legit_flow_label(env),
            claimed_requestor="B_gw1",
            claimed_path=reversed_path,
            victim=env.figure1.b_host.address,
        )
        env.sim.run(until=5.0)
        # With an on-path node able to snoop/forge handshake messages the
        # filter does go in.  (Here the colluding victim-side host simply
        # confirms, which is indistinguishable from a forged reply.)
        installed = [e for e in env.log.of_type(EventType.FILTER_INSTALLED)
                     if e.node == "G_gw1"]
        assert installed, "on-path collusion is expected to succeed (paper, Section III-B)"
        assert compromised.replies_forged == 1
        compromised.detach()


# ----------------------------------------------------------------------
# filter-table exhaustion (spec-driven, both engines)
# ----------------------------------------------------------------------
def exhaustion_spec(*, engine_mode="packet", forged_rate=80.0,
                    filter_capacity=4, shadow_capacity=16, seed=0):
    """A forged-request storm against a capacity-bounded victim gateway:
    the collapse cell of examples/specs/redteam_quick.json."""
    from repro.experiments.spec import ExperimentSpec

    doc = {
        "name": "exhaustion",
        "seed": seed,
        "duration": 6.0,
        "detection_delay": 0.1,
        "aitf": {
            "filter_timeout": 60.0,
            "temporary_filter_timeout": 1.0,
            "victim_gateway_filter_capacity": filter_capacity,
            "shadow_cache_capacity": shadow_capacity,
        },
        "defense": {"backend": "aitf",
                    "params": {"non_cooperating": ["B_host", "B_gw1"]}},
        "topology": {"kind": "figure1", "params": {"extra_good_hosts": 2}},
        "workloads": [
            {"kind": "legitimate", "params": {"rate_pps": 400.0}},
            {"kind": "flood", "params": {"rate_pps": 1500.0, "start": 0.5}},
            {"kind": "forged-requests",
             "params": {"rate": forged_rate, "forger": 1}},
        ],
    }
    if engine_mode == "train":
        doc["engine"] = {"mode": "train", "max_train": 64}
    return ExperimentSpec.from_dict(doc)


class TestFilterTableExhaustion:
    def run_spec(self, **kwargs):
        from repro.experiments.runner import ExperimentRunner

        return ExperimentRunner().run(exhaustion_spec(**kwargs))

    def test_forged_storm_occupancy_is_bounded_packet_engine(self):
        result = self.run_spec(engine_mode="packet")
        stats = result.defense_stats
        # The storm presses far more junk than the tables hold; occupancy
        # must stay within the configured budgets, with the overflow
        # surfacing as counted install/insert failures — not as growth.
        assert 0 < stats["victim_gateway_filter_peak"] <= 4
        assert stats["victim_gateway_filter_failures"] > 0
        assert 0 < stats["victim_gateway_shadow_peak"] <= 16
        assert stats["victim_gateway_shadow_failures"] > 0
        # With the wire-speed table and shadow cache both exhausted and
        # B_gw1 non-cooperating, the flood is never blocked (Section III-B).
        assert result.legit_delivery_ratio < 0.8

    def test_forged_storm_occupancy_is_bounded_train_engine(self):
        stats = self.run_spec(engine_mode="train").defense_stats
        assert 0 < stats["victim_gateway_filter_peak"] <= 4
        assert stats["victim_gateway_filter_failures"] > 0
        assert 0 < stats["victim_gateway_shadow_peak"] <= 16
        assert stats["victim_gateway_shadow_failures"] > 0

    def test_eviction_is_deterministic_across_reruns(self):
        # Same seed, same storm: the lazy min-heap purge and the insertion
        # order are pure functions of the event sequence, so every
        # occupancy/failure counter (and the whole result) reproduces.
        import json

        for mode in ("packet", "train"):
            first = self.run_spec(engine_mode=mode).to_dict()
            second = self.run_spec(engine_mode=mode).to_dict()
            assert json.dumps(first, sort_keys=True) == \
                json.dumps(second, sort_keys=True), mode

    def test_ample_filter_budget_survives_the_same_storm(self):
        # The redteam repair delta: a victim gateway with headroom installs
        # the genuine filter, escalates past non-cooperating B_gw1, and
        # keeps legitimate delivery high under the identical attack.
        result = self.run_spec(filter_capacity=200, shadow_capacity=None)
        assert result.defense_stats["victim_gateway_filter_failures"] == 0
        assert result.legit_delivery_ratio >= 0.8

    def test_forged_request_stream_reports_its_pressure(self):
        result = self.run_spec(engine_mode="packet")
        forged = [w for w in result.workload_stats
                  if w["kind"] == "forged-requests"]
        assert len(forged) == 1
        # 80 req/s over 6 s, scheduled up front.
        assert forged[0]["requests_sent"] == 480
        assert forged[0]["rate"] == 80.0
