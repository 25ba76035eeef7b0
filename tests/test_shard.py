"""Sharded execution (``ExperimentSpec.engine.shards > 1``).

Three layers of pinning:

* **Partition** — ``partition_topology`` is a pure function of topology and
  shard count: victim-anchored seed, hosts never separated from their
  gateways, tier-respecting folds, positive conservative lookahead.
* **Bit-identity** — on uncongested cells the sharded run's merged
  :class:`ExperimentResult` equals the unsharded train engine's result
  exactly (every defense backend, 2 and 4 shards).  This is the acceptance
  contract of the sharded executor: forking the wired experiment and
  exchanging cross-shard trains under conservative lookahead windows is an
  execution strategy, not a model change.
* **Plumbing** — spec hashes ignore the shard count (shard-count-invariant
  sweep cache keys), fault specs fall back to serial execution with a
  warning, CLI-style overrides reach ``engine.shards``.

The serial train engine itself is pinned by test_train_mode.py.
"""

import gc
import json
import logging

import pytest

from repro.experiments import (
    DEFENSES,
    WORKLOADS,
    ExperimentRunner,
    ExperimentSpec,
    spec_hash,
)
from repro.experiments.combine import combine_stats, shared
from repro.experiments.topologies import build_topology
from repro.shard import partition_topology, run_sharded
from repro.shard import runner as shard_runner
from tests.test_hierarchy import train_spec


def fleet_spec(*, defense="none", shards=0, autonomous_systems=24,
               zombies=16, duration=1.5, spoofed=False, observe=False,
               defense_params=None, collectors=(), seed=3):
    """A small uncongested powerlaw cell: zombies + Poisson legit traffic."""
    doc = {
        "name": "shard-cell",
        "topology": {"kind": "powerlaw",
                     "params": {"autonomous_systems": autonomous_systems,
                                "hosts_per_leaf": 2, "seed": 7}},
        "defense": {"backend": defense, "params": defense_params or {}},
        "workloads": [
            {"kind": "zombies",
             "params": {"count": zombies, "rate_pps": 30.0, "start": 0.05,
                        "spoofed": spoofed}},
            {"kind": "legitimate",
             "params": {"rate_pps": 50.0, "poisson": True}},
        ],
        "collectors": list(collectors),
        "duration": duration,
        "seed": seed,
        "engine": {"mode": "train", "max_train": 64},
    }
    if shards > 1:
        doc["engine"]["shards"] = shards
    if observe:
        doc["observe"] = {"channels": ["train", "aitf-control"],
                          "metrics": True}
    return ExperimentSpec.from_dict(doc)


def result_key(result):
    """Canonical comparison form: everything but the spec echo (the sharded
    spec intentionally differs from the serial one by ``engine.shards``)."""
    doc = result.to_dict()
    doc.pop("spec")
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------
class TestPartition:
    def _handle(self, kind="powerlaw", **params):
        params.setdefault("autonomous_systems", 24)
        params.setdefault("seed", 7)
        return build_topology(kind, params)

    def test_partition_is_pure_function_of_topology_and_count(self):
        first = partition_topology(self._handle(), 3)
        second = partition_topology(self._handle(), 3)
        assert first.owner == second.owner
        assert first.seeds == second.seeds
        assert ([(l.a.name, l.b.name) for l in first.cut_links]
                == [(l.a.name, l.b.name) for l in second.cut_links])
        assert first.lookahead == second.lookahead

    def test_every_node_gets_exactly_one_owner(self):
        handle = self._handle()
        partition = partition_topology(handle, 3)
        assert set(partition.owner) == set(handle.topology.nodes)
        assert set(partition.owner.values()) == {0, 1, 2}

    def test_victim_gateway_lives_on_shard_zero(self):
        handle = self._handle()
        partition = partition_topology(handle, 4)
        assert partition.owner[handle.victim_gateway.name] == 0
        assert partition.owner[handle.victim.name] == 0

    def test_access_links_are_never_cut(self):
        # A host separated from its gateway would turn every packet into a
        # cross-shard message; the folding step forbids it by construction.
        handle = self._handle()
        partition = partition_topology(handle, 4)
        for host in handle.topology.hosts():
            gateway = host.links[0].other_end(host)
            assert (partition.owner[host.name]
                    == partition.owner[gateway.name]), host.name

    def test_lookahead_is_minimum_cut_delay(self):
        partition = partition_topology(self._handle(), 2)
        assert partition.cut_links
        assert partition.lookahead == min(l.delay
                                          for l in partition.cut_links)
        assert partition.lookahead > 0.0

    def test_tiered_topology_folds_stubs_into_providers(self):
        handle = self._handle(kind="hierarchy", autonomous_systems=40)
        tier_of = handle.raw.tier_of
        stub_tier = max(tier_of.values())
        partition = partition_topology(handle, 2)
        graph = handle.topology.graph
        for name, tier in tier_of.items():
            if tier != stub_tier:
                continue
            providers = [n for n in graph.neighbors(name)
                         if tier_of.get(n, stub_tier) < stub_tier]
            if providers:
                assert any(partition.owner[name] == partition.owner[p]
                           for p in providers), name

    def test_single_shard_cuts_nothing(self):
        partition = partition_topology(self._handle(), 1)
        assert partition.cut_links == []
        assert partition.lookahead is None
        assert set(partition.owner.values()) == {0}

    def test_more_shards_than_units_rejected(self):
        handle = build_topology("dumbbell", {"sources": 2})
        with pytest.raises(ValueError, match="unit"):
            partition_topology(handle, 64)

    def test_nonpositive_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            partition_topology(self._handle(), 0)


# ----------------------------------------------------------------------
# bit-identity vs the serial train engine
# ----------------------------------------------------------------------
class TestShardedBitIdentity:
    """The acceptance contract: on uncongested cells the merged sharded
    result equals the unsharded train engine result bit for bit."""

    def _compare(self, **kwargs):
        shards = kwargs.pop("shards_under_test", 2)
        serial = ExperimentRunner().run(fleet_spec(**kwargs))
        sharded = ExperimentRunner().run(fleet_spec(shards=shards, **kwargs))
        assert result_key(sharded) == result_key(serial)
        return serial

    def test_two_shards_defense_none(self):
        self._compare(defense="none")

    def test_two_shards_aitf_with_spoofed_zombies_and_collectors(self):
        # The victim marks the zombies' own addresses, which spoofed packets
        # never carry: AITF stays silent here at any horizon.  The cells
        # below are the ones it acts in.
        self._compare(
            defense="aitf",
            defense_params={"non_cooperating_attackers": True},
            spoofed=True,
            autonomous_systems=40,
            collectors=({"kind": "filter-occupancy"},
                        {"kind": "shadow-occupancy"},
                        {"kind": "request-accounting"}),
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_non_cooperating_attackers_rejections_add_up(self, shards):
        # Each zombie's own gateway rejects its stop request, on the shard
        # that owns the zombie: the count is the sum over shards.
        serial = self._compare(
            defense="aitf",
            defense_params={"non_cooperating_attackers": True},
            autonomous_systems=40, duration=4.0, shards_under_test=shards,
            collectors=({"kind": "filter-occupancy"},
                        {"kind": "shadow-occupancy"},
                        {"kind": "request-accounting"}))
        assert serial.control_messages > 0
        assert serial.defense_stats["requests_rejected"] == 16

    def test_four_shards_aitf(self):
        self._compare(defense="aitf", autonomous_systems=40,
                      shards_under_test=4)

    def test_four_shards_defense_none(self):
        self._compare(defense="none", autonomous_systems=40,
                      shards_under_test=4)

    def test_two_shards_pushback_uncongested(self):
        # Congested pushback cells are a documented sharding limitation
        # (the rate-limit recursion is call-based); uncongested cells must
        # still merge exactly.
        self._compare(defense="pushback")

    def test_two_shards_ingress_dpf(self):
        self._compare(defense="ingress-dpf", spoofed=True)

    def test_two_shards_manual(self):
        serial = self._compare(defense="manual",
                               defense_params={"local_response_delay": 0.5,
                                               "upstream_response_delay": 1.0})
        assert serial.defense_stats["filters_installed"] > 0


class TestShardedDeterminism:
    def test_sharded_run_repeats_identically_with_observability(self):
        spec = fleet_spec(defense="aitf", shards=2, observe=True)
        first = ExperimentRunner().run(spec)
        second = ExperimentRunner().run(spec)
        assert (json.dumps(first.to_dict(), sort_keys=True)
                == json.dumps(second.to_dict(), sort_keys=True))
        assert first.observability["per_shard"]
        assert "trace" in first.observability

    def test_merged_observability_sums_shard_traces(self):
        result = ExperimentRunner().run(
            fleet_spec(defense="aitf", shards=2, observe=True))
        per_shard = result.observability["per_shard"]
        merged = result.observability["trace"]
        assert merged["records"] == sum(s["trace"]["records"]
                                        for s in per_shard)

    def test_merged_metrics_carry_the_serial_defense_and_collector_counters(
            self):
        # Published once, from the combined stats; sim.* stays per shard.
        collectors = ({"kind": "filter-occupancy"},
                      {"kind": "request-accounting"})

        def published(**kwargs):
            result = ExperimentRunner().run(fleet_spec(
                defense="aitf", observe=True, collectors=collectors,
                **kwargs))
            counters = result.observability["metrics"]["counters"]
            return {key: value for key, value in counters.items()
                    if key.startswith(("defense.", "collector."))}

        serial = published()
        assert len([k for k in serial if k.startswith("defense.")]) == 15
        assert published(shards=2) == serial


# ----------------------------------------------------------------------
# cross-shard rules
# ----------------------------------------------------------------------
def every_workload_spec(defense):
    """A small cell running every registered workload kind the backend
    supports (filter-requests needs the AITF victim agent)."""
    doc = fleet_spec(defense=defense, zombies=4, duration=1.0).to_dict()
    doc["workloads"] += [
        {"kind": "flood", "params": {"attacker": 5, "rate_pps": 50.0}},
        {"kind": "onoff", "params": {"attacker": 6, "rate_pps": 50.0}},
        {"kind": "forged-requests", "params": {"rate": 10.0}},
    ]
    if defense == "aitf":
        doc["workloads"].append(
            {"kind": "filter-requests", "params": {"rate": 10.0}})
    return ExperimentSpec.from_dict(doc)


class TestCrossShardRules:
    """Every statistic a backend's ``collect()`` or a workload's ``stats()``
    reports declares how it combines across shards; there is no default."""

    @pytest.mark.parametrize("defense", DEFENSES.names())
    def test_every_reported_key_has_a_rule(self, defense):
        execution = ExperimentRunner().prepare(every_workload_spec(defense))
        result = execution.run()
        assert set(result.defense_stats) <= set(execution.backend.shard_rules)
        for workload, stats in zip(execution.workloads,
                                   result.workload_stats):
            assert set(stats) <= set(workload.shard_rules), workload.kind
        measured = execution.measure(result.duration)
        execution.combine([measured, measured])

    def test_the_cells_cover_every_registered_workload(self):
        kinds = {w.kind for w in every_workload_spec("aitf").workloads}
        assert kinds == set(WORKLOADS.names())

    def test_an_undeclared_stat_fails_loudly(self):
        execution = ExperimentRunner().prepare(fleet_spec(defense="aitf"))
        result = execution.run()
        measured = execution.measure(result.duration)
        measured["defense_stats"]["new_counter"] = 1
        with pytest.raises(ValueError,
                           match="defense 'aitf': no cross-shard rule for "
                                 "new_counter"):
            execution.combine([measured, measured])

    def test_shared_stats_that_differ_fail_loudly(self):
        with pytest.raises(ValueError, match="'rate': declared shared"):
            combine_stats({"rate": shared}, [{"rate": 1.0}, {"rate": 2.0}],
                          "workload")


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class TestShardPlumbing:
    def test_spec_hash_is_shard_count_invariant(self):
        # Sweep cache keys must not depend on the execution strategy.
        assert (spec_hash(fleet_spec())
                == spec_hash(fleet_spec(shards=2))
                == spec_hash(fleet_spec(shards=4)))

    def test_shards_round_trip_through_json(self):
        spec = fleet_spec(shards=4)
        assert ExperimentSpec.from_json(spec.to_json()).engine.shards == 4

    def test_cli_style_override_reaches_engine_shards(self):
        spec = fleet_spec().with_overrides({"engine.shards": 2})
        assert spec.engine.shards == 2

    def test_run_sharded_requires_at_least_two_shards(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            run_sharded(fleet_spec())

    def test_fault_specs_fall_back_to_serial(self, caplog):
        # Link up/down state cannot be replicated across shard processes,
        # so a fault spec asking for shards runs serially (with a warning)
        # instead of failing — and matches the serial run exactly.
        faults = [{"kind": "link_down", "time": 0.5, "link": ["as0", "as1"]}]
        sharded = ExperimentSpec.from_dict(
            {**fleet_spec(shards=2).to_dict(), "faults": faults})
        serial = ExperimentSpec.from_dict(
            {**fleet_spec().to_dict(), "faults": faults})
        # A CLI test running earlier may have installed the stderr handler
        # and cut propagation on the "repro" logger; caplog listens at the
        # root, so restore propagation for the duration of this run.
        repro_logger = logging.getLogger("repro")
        saved_propagate = repro_logger.propagate
        repro_logger.propagate = True
        try:
            with caplog.at_level("WARNING", logger="repro.shard.runner"):
                fallback_result = ExperimentRunner().run(sharded)
        finally:
            repro_logger.propagate = saved_propagate
        assert any("falls back to serial" in record.message
                   for record in caplog.records)
        assert result_key(fallback_result) == result_key(
            ExperimentRunner().run(serial))


class TestShardedRunReleasesTheCollector:
    """``run_sharded`` builds one execution, forks and never calls its
    ``run()``: a build big enough to be frozen stays frozen across the
    fork (the workers' collections leave the shared pages alone) and the
    parent hands it back once the workers are joined."""

    @staticmethod
    def _spec(shards=2, **overrides):
        # 2,000 ASes: big enough for BuildCollector to freeze.
        return train_spec(
            2000, engine={"mode": "train", "shards": shards}, **overrides)

    def test_frozen_build_is_forked_frozen_and_released_after_the_join(
            self, monkeypatch):
        at_fork = []
        real_coordinate = shard_runner._coordinate

        def coordinate(*args):
            at_fork.append(gc.get_freeze_count())
            return real_coordinate(*args)

        monkeypatch.setattr(shard_runner, "_coordinate", coordinate)
        was_enabled = gc.isenabled()
        result = run_sharded(self._spec())
        assert at_fork and at_fork[0] > 100_000
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == was_enabled
        assert result.time_to_first_block is not None

    def test_serial_fallback_and_failed_partition_release_too(self):
        faults = [{"kind": "link_down", "time": 0.3,
                   "link": ["t1_00", "t1_01"]}]
        run_sharded(self._spec(faults=faults))
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        with pytest.raises(ValueError):
            run_sharded(self._spec(shards=100_000))
        assert gc.get_freeze_count() == 0 and gc.isenabled()
