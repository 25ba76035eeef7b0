"""Tests for the experiment runner: uniform backends, seed plumbing, E9."""

import gc

import pytest

from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    TopologySpec,
    WorkloadSpec,
    default_flood_spec,
)
from repro.experiments.runner import BuildCollector
from tests.test_hierarchy import train_spec

#: Every registered defense backend must run the flood spec.
ALL_BACKENDS = ("aitf", "pushback", "ingress-dpf", "manual", "none")

#: Metric names every backend's stats dict must report (the uniform surface
#: the E9 comparison table is built from).
COMMON_DEFENSE_KEYS = {"backend", "time_to_first_block", "nodes_involved",
                       "control_messages"}


class TestAllBackendsOneSpec:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_flood_spec_runs_under_every_backend(self, backend):
        spec = default_flood_spec(defense=backend, duration=3.0)
        result = ExperimentRunner().run(spec)
        assert result.schema == "experiment_result/v1"
        assert result.defense == backend
        assert result.attack_offered_bps == 12_000_000.0
        assert result.attack_received_bps >= 0.0
        assert COMMON_DEFENSE_KEYS <= set(result.defense_stats)
        assert result.defense_stats["backend"] == backend
        # The result document serializes cleanly.
        doc = result.to_dict()
        assert doc["defense"] == backend
        assert doc["spec"]["defense"]["backend"] == backend

    def test_aitf_blocks_and_none_does_not(self):
        aitf = ExperimentRunner().run(default_flood_spec(defense="aitf", duration=4.0))
        none = ExperimentRunner().run(default_flood_spec(defense="none", duration=4.0))
        assert aitf.effective_bandwidth_ratio < 0.1
        assert aitf.time_to_first_block is not None
        assert none.effective_bandwidth_ratio > 0.3
        assert none.time_to_first_block is None
        assert aitf.legit_goodput_bps > none.legit_goodput_bps

    def test_manual_operator_blocks_only_after_human_delay(self):
        spec = default_flood_spec(
            defense="manual", duration=6.0,
            defense_params={"local_response_delay": 2.0,
                            "upstream_response_delay": 4.0},
        )
        result = ExperimentRunner().run(spec)
        stats = result.defense_stats
        assert stats["filters_installed"] == 2
        # Operator reacts detection_delay + local_response_delay after start.
        assert result.time_to_first_block == pytest.approx(2.1)
        assert result.effective_bandwidth_ratio < 0.5

    def test_ingress_dpf_stops_spoofed_but_not_honest_floods(self):
        spoofed = default_flood_spec(defense="ingress-dpf", duration=2.0)
        spoofed = spoofed.with_overrides({"workloads.1.params.spoofed": True})
        r_spoofed = ExperimentRunner().run(spoofed)
        honest = default_flood_spec(defense="ingress-dpf", duration=2.0)
        r_honest = ExperimentRunner().run(honest)
        assert r_spoofed.defense_stats["spoofed_dropped"] > 0
        assert r_spoofed.attack_received_bps == 0.0
        assert r_honest.defense_stats["spoofed_dropped"] == 0
        assert r_honest.attack_received_bps > 0.0


class TestE9Comparison:
    """AITF involves ~4 nodes and blocks within a round; Pushback recruits
    routers hop by hop, so its footprint grows with the path length."""

    def test_aitf_blocks_in_about_one_round(self):
        result = ExperimentRunner().run(default_flood_spec(defense="aitf",
                                                           duration=4.0))
        stats = result.defense_stats
        # One round: victim, victim's gateway, attacker's gateway, attacker.
        assert stats["escalation_rounds"] <= 1
        assert result.nodes_involved <= 4
        assert result.time_to_first_block < 0.5
        assert stats["time_to_attacker_gateway_filter"] < 1.0

    def test_pushback_involvement_grows_with_path_length(self):
        # Figure-1: six border routers between attacker and victim.
        long_path = ExperimentRunner().run(
            default_flood_spec(defense="pushback", duration=6.0))
        # Dumbbell: two border routers.
        short_spec = ExperimentSpec(
            name="pushback-short",
            topology=TopologySpec("dumbbell", {"sources": 2}),
            defense=short_defense(),
            workloads=(WorkloadSpec("flood", {"rate_pps": 1500.0, "start": 0.5}),),
            detection_delay=0.1,
            duration=6.0,
        )
        short_path = ExperimentRunner().run(short_spec)
        assert long_path.nodes_involved > short_path.nodes_involved
        assert long_path.nodes_involved >= 3
        assert short_path.nodes_involved <= 2
        assert long_path.control_messages > 0

    def test_pushback_squeezes_legitimate_traffic_aitf_does_not(self):
        aitf = ExperimentRunner().run(default_flood_spec(defense="aitf",
                                                         duration=5.0))
        pushback = ExperimentRunner().run(default_flood_spec(defense="pushback",
                                                             duration=5.0))
        # The aggregate limiter cannot tell legit from attack: collateral loss.
        assert pushback.legit_delivery_ratio < 0.75
        assert aitf.legit_delivery_ratio > 0.9


def short_defense():
    from repro.experiments import DefenseSpec

    return DefenseSpec("pushback", {})


class TestPreparedExecution:
    def test_seed_is_plumbed_into_the_deployment(self):
        a, b = (ExperimentRunner().prepare(default_flood_spec(seed=seed))
                for seed in (1, 2))
        assert a.backend.deployment.gateway_agent("G_gw1").rng.seed != \
            b.backend.deployment.gateway_agent("G_gw1").rng.seed


class TestRunnerWorkloads:
    def test_zombies_workload_on_dumbbell(self):
        spec = ExperimentSpec(
            name="zombies",
            topology=TopologySpec("dumbbell", {"sources": 5}),
            workloads=(
                WorkloadSpec("legitimate", {"rate_pps": 100.0, "start": 0.0}),
                WorkloadSpec("zombies", {"count": 4, "rate_pps": 400.0,
                                         "start": 0.3}),
            ),
            detection_delay=0.05,
            duration=4.0,
        )
        result = ExperimentRunner().run(spec)
        assert result.workload_stats[1]["zombies"] == 4
        assert result.workload_stats[1]["packets_sent"] > 0
        # AITF blocks all four zombie flows.
        assert result.effective_bandwidth_ratio < 0.2
        assert result.defense_stats["requests_sent_by_victim"] == 4

    def test_powerlaw_topology_runs_under_spec(self):
        pytest.importorskip("networkx")
        spec = ExperimentSpec(
            name="powerlaw",
            topology=TopologySpec("powerlaw", {"autonomous_systems": 12,
                                               "hosts_per_leaf": 1}),
            workloads=(WorkloadSpec("flood", {"rate_pps": 500.0, "start": 0.2}),),
            duration=2.0,
        )
        result = ExperimentRunner().run(spec)
        assert result.topology == "powerlaw"
        assert result.attack_offered_bps == 4_000_000.0

    def test_missing_legit_sender_is_a_clear_error(self):
        spec = ExperimentSpec(
            topology=TopologySpec("figure1", {}),  # no extra good hosts
            workloads=(WorkloadSpec("legitimate", {}),),
        )
        with pytest.raises(ValueError, match="no legitimate-sender hosts"):
            ExperimentRunner().run(spec)


def frozen_size_spec(**overrides):
    """A build big enough for ``BuildCollector`` to freeze."""
    return train_spec(2000, **overrides)


@pytest.fixture
def collector_state():
    """Start from, and whatever the test does leave behind, a default
    collector (an earlier test may have prepared a large build and dropped
    it, which stays frozen until the next build by design)."""
    BuildCollector.release()
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    BuildCollector.release()
    gc.enable()


@pytest.mark.usefixtures("collector_state")
class TestCollectorStateNeverLeaks:
    """The build pauses the cyclic collector and may freeze what it built
    (`BuildCollector`); every way out hands the collector back as found."""

    def test_large_build_is_frozen_until_its_run_returns(self):
        execution = ExperimentRunner().prepare(frozen_size_spec())
        assert gc.isenabled()
        assert gc.get_freeze_count() > 100_000
        first = execution.run(until=0.4)
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        # The second call has nothing to release and freezes nothing.
        second = execution.run(until=1.0)
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        assert first.time_to_first_block is None
        assert second.time_to_first_block is not None

    def test_small_build_is_never_frozen(self):
        execution = ExperimentRunner().prepare(default_flood_spec(duration=1.0))
        assert gc.isenabled() and gc.get_freeze_count() == 0
        execution.run()
        assert gc.isenabled() and gc.get_freeze_count() == 0

    @pytest.mark.parametrize("broken", [
        {"defense": {"backend": "aitf", "params": {"deployment": "nowhere"}}},
        {"collectors": [{"kind": "filter-occupancy"},
                        {"kind": "filter-occupancy"}]},
    ], ids=["bad-defense-params", "duplicate-collector-id"])
    def test_a_build_that_raises_leaves_the_collector_as_found(self, broken):
        with pytest.raises(ValueError):
            ExperimentRunner().prepare(frozen_size_spec(**broken))
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_a_caller_who_disabled_the_collector_sees_no_change(
            self, monkeypatch):
        calls = []
        for name in ("enable", "disable", "freeze"):
            monkeypatch.setattr(
                gc, name, lambda name=name, real=getattr(gc, name):
                (calls.append(name), real())[1])
        gc.disable()
        del calls[:]
        execution = ExperimentRunner().prepare(frozen_size_spec())
        assert not gc.isenabled() and gc.get_freeze_count() == 0
        execution.run()
        assert not gc.isenabled() and gc.get_freeze_count() == 0
        assert calls == []

    def test_run_raising_inside_the_simulator_still_unfreezes(
            self, monkeypatch):
        execution = ExperimentRunner().prepare(frozen_size_spec())
        assert gc.get_freeze_count() > 0

        def broken_run(until=None):
            raise RuntimeError("event handler blew up")

        monkeypatch.setattr(execution.sim, "run", broken_run)
        with pytest.raises(RuntimeError, match="blew up"):
            execution.run()
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_a_prepared_and_dropped_execution_is_released_by_the_next_build(
            self, monkeypatch):
        # Tests and examples prepare only to read .handle or
        # .backend.deployment; their heap must not stay pinned.
        dropped = ExperimentRunner().prepare(frozen_size_spec())
        assert gc.get_freeze_count() > 0
        del dropped
        seen = []
        real_disable = gc.disable
        monkeypatch.setattr(
            gc, "disable",
            lambda: (seen.append(gc.get_freeze_count()), real_disable())[1])
        ExperimentRunner().prepare(default_flood_spec(duration=1.0))
        assert seen == [0]
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_the_next_build_makes_the_full_pass_a_released_build_is_owed(self):
        # gc.unfreeze() never counted the build as pending, so nothing else
        # would trigger the pass that reclaims it once it is dead.
        full_passes = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full_passes.append(1)

        ExperimentRunner().run(frozen_size_spec())
        gc.callbacks.append(count)
        try:
            ExperimentRunner().prepare(default_flood_spec(duration=1.0))
            assert len(full_passes) == 1
            ExperimentRunner().prepare(default_flood_spec(duration=1.0))
            assert len(full_passes) == 1
        finally:
            gc.callbacks.remove(count)
