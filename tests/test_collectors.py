"""Tests for the metric-collector registry and the filter-requests workload."""

import pytest

from repro.experiments import (
    COLLECTORS,
    CollectorSpec,
    ExperimentRunner,
    ExperimentSpec,
    default_attacker_resource_spec,
    default_victim_resource_spec,
)
from repro.experiments.spec import DefenseSpec, TopologySpec, WorkloadSpec


class TestRegistry:
    def test_collector_kinds_registered(self):
        for kind in ("filter-occupancy", "shadow-occupancy",
                     "host-filter-occupancy", "request-accounting",
                     "paper-formulas"):
            assert kind in COLLECTORS

    def test_unknown_collector_names_choices(self):
        # Refused when the spec is parsed, before anything is built.
        with pytest.raises(ValueError, match="unknown collector 'bogus'; "
                                             "available: churn, filter-"):
            default_victim_resource_spec(duration=1.0).with_overrides(
                {"collectors.0.kind": "bogus"})

    def test_duplicate_collector_ids_rejected(self):
        spec = default_victim_resource_spec(duration=1.0).with_overrides(
            {"collectors.1.params.id": "victim-gw-filters"})
        with pytest.raises(ValueError, match="duplicate collector id"):
            ExperimentRunner().prepare(spec)


class TestCollectorErrors:
    def test_shadow_occupancy_needs_aitf_backend(self):
        spec = default_victim_resource_spec(duration=1.0).with_overrides(
            {"defense.backend": "none"})
        with pytest.raises(ValueError, match="needs the 'aitf' defense backend"):
            ExperimentRunner().prepare(spec)

    def test_filter_occupancy_rejects_unknown_node(self):
        spec = default_victim_resource_spec(duration=1.0).with_overrides(
            {"collectors.0.params.node": "no-such-router"})
        with pytest.raises(ValueError, match="not a border router"):
            ExperimentRunner().prepare(spec)

    def test_host_filter_occupancy_needs_a_host(self):
        spec = default_attacker_resource_spec(duration=1.0).with_overrides(
            {"collectors.1.params": {"id": "attacker-host-filters"}})
        with pytest.raises(ValueError, match="needs a 'host' param"):
            ExperimentRunner().prepare(spec)

    def test_paper_formulas_needs_a_rate_source(self):
        spec = ExperimentSpec(
            topology=TopologySpec("dumbbell", {"sources": 2}),
            defense=DefenseSpec("aitf"),
            workloads=(WorkloadSpec("flood", {"rate_pps": 100.0}),),
            collectors=(CollectorSpec("paper-formulas"),),
            duration=1.0,
        )
        with pytest.raises(ValueError, match="request_rate"):
            ExperimentRunner().prepare(spec)

    def test_paper_formulas_reject_a_nonpositive_rate_when_built(self):
        spec = default_victim_resource_spec(duration=1.0).with_overrides(
            {"collectors.3.params.request_rate": 0.0})
        assert spec.collectors[3].kind == "paper-formulas"
        with pytest.raises(ValueError, match="positive request rate"):
            ExperimentRunner().prepare(spec)

    def test_paper_formulas_size_mv_by_the_shadow_lifetime(self):
        spec = default_victim_resource_spec(
            request_rate=10.0, sources=5, duration=1.0,
            aitf={"filter_timeout": 60.0, "temporary_filter_timeout": 0.5,
                  "shadow_timeout": 30.0})
        paper = ExperimentRunner().run(spec).collector_stats["paper"]
        assert paper["predicted_filters"] == 5
        assert paper["predicted_shadow_entries"] == 300
        assert paper["predicted_protected_flows"] == 600

    def test_filter_requests_needs_aitf_backend(self):
        spec = ExperimentSpec(
            topology=TopologySpec("dumbbell", {"sources": 2}),
            defense=DefenseSpec("none"),
            workloads=(WorkloadSpec("filter-requests", {"rate": 10.0}),),
            duration=1.0,
        )
        execution = ExperimentRunner().prepare(spec)
        with pytest.raises(ValueError, match="filter-requests workload needs"):
            execution.run()


class TestSpecDrivenResourceRun:
    """The pure spec path (what the committed E2-E5 grids execute)."""

    def test_victim_spec_collector_stats(self):
        spec = default_victim_resource_spec(request_rate=20.0, sources=10,
                                            duration=2.0)
        result = ExperimentRunner().run(spec)
        stats = result.collector_stats
        assert set(stats) == {"victim-gw-filters", "victim-gw-shadow",
                              "requests", "paper"}
        assert stats["requests"]["requests_accepted"] == 40
        assert stats["requests"]["requests_policed"] == 0
        assert stats["victim-gw-shadow"]["peak"] >= 39.0
        # nv = R1 * Ttmp = 20 * 0.6 = 12
        assert stats["paper"]["predicted_filters"] == 12
        assert stats["victim-gw-filters"]["peak"] <= 14.0
        # The control workload reports its request count, not traffic.
        assert result.workload_stats[0]["role"] == "control"
        assert result.workload_stats[0]["requests_sent"] == 40
        assert result.attack_offered_bps == 0.0

    def test_attacker_spec_collector_stats(self):
        spec = default_attacker_resource_spec(request_rate=2.0,
                                              filter_timeout=10.0,
                                              duration=6.0)
        result = ExperimentRunner().run(spec)
        stats = result.collector_stats
        assert stats["requests"]["filters_installed"] == 12
        assert stats["paper"]["predicted_attacker_filters"] == 20
        assert stats["attacker-gw-filters"]["peak"] == 12.0
        assert stats["attacker-host-filters"]["peak"] == 12.0

    def test_filter_requests_rate_defaults_to_send_contract(self):
        spec = default_victim_resource_spec(request_rate=20.0, sources=5,
                                            duration=2.0).with_overrides(
            {"workloads.0.params": {}})
        result = ExperimentRunner().run(spec)
        # default_send_rate is 20/s in this spec, so the workload still
        # offers 40 requests over 2 s.
        assert result.workload_stats[0]["requests_sent"] == 40

    def test_collector_stats_serialize(self):
        spec = default_victim_resource_spec(request_rate=10.0, sources=5,
                                            duration=1.0)
        doc = ExperimentRunner().run(spec).to_dict()
        assert doc["collector_stats"]["paper"]["predicted_protected_flows"] == 600
        assert doc["spec"]["collectors"][0]["kind"] == "filter-occupancy"

    def test_spec_round_trips_with_collectors(self):
        spec = default_victim_resource_spec(request_rate=10.0)
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.collectors[0].kind == "filter-occupancy"

    def test_collector_spec_requires_kind(self):
        with pytest.raises(ValueError, match="requires a 'kind'"):
            CollectorSpec.from_dict({"params": {}})
