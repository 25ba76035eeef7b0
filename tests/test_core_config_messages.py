"""Unit tests for protocol configuration and messages."""

import pytest

from repro.analysis import formulas
from repro.core.config import AITFConfig, PAPER_EXAMPLE_CONFIG
from repro.core.messages import FilteringRequest, RequestRole, VerificationQuery
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel


class TestAITFConfig:
    def test_defaults_are_consistent(self):
        config = AITFConfig()
        assert config.temporary_filter_timeout < config.filter_timeout
        assert config.effective_shadow_timeout == config.filter_timeout
        assert config.effective_escalation_grace == config.temporary_filter_timeout

    def test_explicit_shadow_and_grace(self):
        config = AITFConfig(shadow_timeout=30.0, escalation_grace_period=2.0)
        assert config.effective_shadow_timeout == 30.0
        assert config.effective_escalation_grace == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AITFConfig(filter_timeout=0.0)
        with pytest.raises(ValueError):
            AITFConfig(temporary_filter_timeout=0.0)
        with pytest.raises(ValueError):
            AITFConfig(filter_timeout=1.0, temporary_filter_timeout=2.0)
        with pytest.raises(ValueError):
            AITFConfig(handshake_timeout=0.0)
        with pytest.raises(ValueError):
            AITFConfig(max_escalation_rounds=0)

    def test_with_overrides_returns_new_config(self):
        config = AITFConfig()
        changed = config.with_overrides(filter_timeout=120.0)
        assert changed.filter_timeout == 120.0
        assert config.filter_timeout == 60.0

    def test_paper_example_config_matches_worked_examples(self):
        config = PAPER_EXAMPLE_CONFIG
        r1, r2 = config.default_accept_rate, config.default_send_rate
        assert formulas.protected_flows(r1, config.filter_timeout) == 6000
        assert formulas.victim_gateway_filters(
            r1, config.temporary_filter_timeout) == 60
        assert formulas.attacker_side_filters(r2, config.filter_timeout) == 60


class TestFilteringRequest:
    LABEL = FlowLabel.between("10.0.0.1", "10.0.1.1")
    PATH = ("B_gw1", "B_gw2", "B_gw3", "G_gw3", "G_gw2", "G_gw1")

    def test_round1_designations(self):
        request = FilteringRequest(label=self.LABEL, timeout=60.0,
                                   attack_path=self.PATH, round_number=1)
        assert request.designated_attacker_gateway == "B_gw1"
        assert request.designated_attacker is None  # round 1: the host itself

    def test_round2_designations(self):
        request = FilteringRequest(label=self.LABEL, timeout=60.0,
                                   attack_path=self.PATH, round_number=2)
        assert request.designated_attacker_gateway == "B_gw2"
        assert request.designated_attacker == "B_gw1"

    def test_round_beyond_path_returns_none(self):
        request = FilteringRequest(label=self.LABEL, timeout=60.0,
                                   attack_path=self.PATH, round_number=10)
        assert request.designated_attacker_gateway is None

    def test_request_ids_are_unique_and_preserved_by_propagate(self):
        a = FilteringRequest(label=self.LABEL, timeout=60.0)
        b = FilteringRequest(label=self.LABEL, timeout=60.0)
        assert a.request_id != b.request_id
        propagated = a.propagate(role=RequestRole.TO_ATTACKER_GATEWAY, requestor="G_gw1")
        assert propagated.request_id == a.request_id
        assert propagated.role is RequestRole.TO_ATTACKER_GATEWAY
        assert propagated.requestor == "G_gw1"
        # Original is unchanged (propagate returns a copy).
        assert a.role is RequestRole.TO_VICTIM_GATEWAY

    def test_propagate_can_change_round_and_path(self):
        request = FilteringRequest(label=self.LABEL, timeout=60.0,
                                   attack_path=self.PATH, round_number=1)
        escalated = request.propagate(role=RequestRole.TO_VICTIM_GATEWAY,
                                      requestor="G_gw1", round_number=2)
        assert escalated.round_number == 2
        assert escalated.attack_path == self.PATH


class TestVerificationMessages:
    def test_matching_reply_echoes_label_and_nonce(self):
        label = FlowLabel.between("10.0.0.1", "10.0.1.1")
        query = VerificationQuery(label=label, nonce=12345,
                                  querier=IPAddress.parse("10.0.9.1"), request_id=7)
        reply = query.matching_reply(confirmed=True,
                                     responder=IPAddress.parse("10.0.1.1"))
        assert reply.nonce == 12345
        assert reply.label == label
        assert reply.confirmed
        assert reply.request_id == 7
