"""Red-team search + verified minimal repair (repro.redteam).

The acceptance contract this file pins:

* the adaptive search is bit-deterministic — same spec, same collapse
  cells, byte-identical documents at any worker count;
* repair tries candidates cheapest-first, records verifiably failing
  trials, and verifies the cheapest delta that restores the metric with
  the collapse cell's own seed (paired comparison);
* the ``repair_report/v1`` run-hash replays exactly, and a ``verify``
  replay against a warm cell cache is served (almost) entirely from it.
"""

import copy
import json

import pytest

from repro.cluster.cache import CellCache
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import SweepRunner
from repro.redteam import (
    RedTeamSpec,
    RepairCandidate,
    report_run_hash,
    run_repair,
    run_search,
    verify_replay,
)
from repro.redteam.search import metric_value, search_to_json
from repro.redteam.spec import load_redteam_spec

QUICK_SPEC = "examples/specs/redteam_quick.json"


def mini_base(duration=4.0):
    """The forged-request exhaustion cell, sized for test wall-clock."""
    return {
        "name": "redteam-mini",
        "seed": 0,
        "duration": duration,
        "detection_delay": 0.1,
        "aitf": {
            "filter_timeout": 60.0,
            "temporary_filter_timeout": 1.0,
            "victim_gateway_filter_capacity": 4,
            "shadow_cache_capacity": 16,
        },
        "defense": {"backend": "aitf",
                    "params": {"non_cooperating": ["B_host", "B_gw1"]}},
        "topology": {"kind": "figure1", "params": {"extra_good_hosts": 2}},
        "workloads": [
            {"kind": "legitimate", "params": {"rate_pps": 400.0}},
            {"kind": "flood", "params": {"rate_pps": 1500.0, "start": 0.5}},
            {"kind": "forged-requests", "params": {"rate": 80.0, "forger": 1}},
        ],
    }


def mini_spec(**kwargs):
    defaults = dict(
        base=ExperimentSpec.from_dict(mini_base()),
        axes={"workloads.2.params.rate": [2.0, 80.0]},
        repairs=[
            RepairCandidate("shrink-ttmp", 1.0,
                            {"aitf.temporary_filter_timeout": 0.04}),
            RepairCandidate("filter-budget", 2.0,
                            {"aitf.victim_gateway_filter_capacity": 200}),
        ],
        metric="legit_delivery_ratio",
        threshold=0.8,
        initial_step=1,
        rounds=1,
        max_cells=8,
        name="mini",
    )
    defaults.update(kwargs)
    return RedTeamSpec(**defaults)


# ----------------------------------------------------------------------
# spec documents
# ----------------------------------------------------------------------
class TestRedTeamSpecFile:
    def test_committed_quick_spec_parses_and_resolves(self):
        spec = load_redteam_spec(QUICK_SPEC)
        assert spec.name == "redteam_quick"
        assert spec.has_quick
        assert len(spec.repairs) == 4
        quick = spec.resolve(quick=True)
        assert quick.max_cells == 12
        assert quick.axes["workloads.2.params.rate"] == [2.0, 20.0, 80.0]
        # Non-quick resolve returns the full ladders.
        assert spec.resolve().axes["workloads.2.params.rate"] == \
            [2.0, 10.0, 20.0, 40.0, 80.0]

    def test_spec_round_trips_through_dict(self):
        spec = RedTeamSpec.load(QUICK_SPEC)
        again = RedTeamSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_unknown_keys_are_rejected(self):
        data = RedTeamSpec.load(QUICK_SPEC).to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            RedTeamSpec.from_dict(data)

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mini_spec(axes={"workloads.2.params.rate": []})

    def test_repair_candidate_needs_overrides(self):
        with pytest.raises(ValueError, match="overrides"):
            RepairCandidate.from_dict({"name": "noop", "cost": 1.0,
                                       "overrides": {}})


# ----------------------------------------------------------------------
# adaptive search
# ----------------------------------------------------------------------
class TestSearch:
    def test_finds_the_collapse_cell(self):
        document = run_search(mini_spec(), executor=SweepRunner())
        assert document["schema"] == "redteam_search/v1"
        cells = document["cells"]
        assert [cell["overrides"]["workloads.2.params.rate"]
                for cell in cells] == [2.0, 80.0]
        assert cells[0]["collapsed"] is False
        assert cells[1]["collapsed"] is True
        assert cells[1]["value"] < 0.8 < cells[0]["value"]
        assert document["collapse_cells"] == [1]

    def test_byte_identical_across_worker_counts_and_reruns(self):
        spec = mini_spec()
        serial = search_to_json(run_search(spec, executor=SweepRunner()))
        again = search_to_json(run_search(spec, executor=SweepRunner()))
        pooled = search_to_json(
            run_search(spec, executor=SweepRunner(workers=2)))
        assert serial == again == pooled

    def test_refinement_probes_ladder_neighbours_of_collapse(self):
        # Coarse probe (step 3) sees rungs 0 and 3 only; the refinement
        # round must pull in rung 2 — the unevaluated neighbour of the
        # collapsed rung 3 — and nothing adjacent to the healthy rung 0
        # beyond its own +1... which is rung 1, adjacent to nothing
        # collapsed, so it stays unevaluated.
        spec = mini_spec(
            axes={"workloads.2.params.rate": [2.0, 3.0, 60.0, 80.0]},
            initial_step=3, rounds=1)
        document = run_search(spec, executor=SweepRunner())
        rates = [cell["overrides"]["workloads.2.params.rate"]
                 for cell in document["cells"]]
        assert rates == [2.0, 60.0, 80.0]
        rounds = {cell["overrides"]["workloads.2.params.rate"]: cell["round"]
                  for cell in document["cells"]}
        assert rounds[80.0] == 0 and rounds[60.0] == 1

    def test_max_cells_truncates_deterministically(self):
        spec = mini_spec(max_cells=1, rounds=0)
        document = run_search(spec, executor=SweepRunner())
        assert document["truncated"] is True
        assert len(document["cells"]) == 1
        assert document["cells"][0]["overrides"][
            "workloads.2.params.rate"] == 2.0

    def test_metric_value_errors_are_actionable(self):
        with pytest.raises(KeyError, match="no_such_metric"):
            metric_value({"legit_delivery_ratio": 1.0}, "no_such_metric")
        with pytest.raises(ValueError, match="not numeric"):
            metric_value({"defense_stats": {"backend": "aitf"}},
                         "defense_stats.backend")


# ----------------------------------------------------------------------
# minimal repair + verified replay
# ----------------------------------------------------------------------
class TestRepairAndVerify:
    @pytest.fixture(scope="class")
    def loop(self, tmp_path_factory):
        """One shared search + repair over a class-scoped cell cache."""
        cache = CellCache(str(tmp_path_factory.mktemp("cells")))
        spec = mini_spec()
        executor = SweepRunner(cache=cache)
        search = run_search(spec, executor=executor)
        report = run_repair(spec, search, executor=executor)
        return {"cache": cache, "spec": spec, "search": search,
                "report": report, "first_stats": executor.cache_stats()}

    def test_repair_verifies_the_cheapest_restoring_delta(self, loop):
        report = loop["report"]
        assert report["schema"] == "repair_report/v1"
        (entry,) = report["repairs"]
        assert entry["cell_index"] == 1
        assert entry["collapsed_value"] < 0.8
        # Cheapest-first: shrink-ttmp is tried, verifiably fails to
        # repair, and stays in the trail; filter-budget restores.
        assert [trial["name"] for trial in entry["trials"]] == \
            ["shrink-ttmp", "filter-budget"]
        assert entry["trials"][0]["restored"] is False
        assert entry["repair"]["name"] == "filter-budget"
        assert entry["repair"]["value"] >= 0.8

    def test_run_hash_stamp_matches_report_body(self, loop):
        report = loop["report"]
        assert report["run_hash"] == report_run_hash(report)
        tampered = copy.deepcopy(report)
        tampered["threshold"] = 0.5
        assert report_run_hash(tampered) != report["run_hash"]

    def test_verify_replays_from_cache(self, loop):
        executor = SweepRunner(cache=loop["cache"])
        verdict = verify_replay(loop["spec"], loop["search"], loop["report"],
                                executor=executor)
        assert verdict["verified"] is True
        assert verdict["search_match"] and verdict["repair_match"]
        assert verdict["run_hash"] == loop["report"]["run_hash"]
        # An unchanged checkout replays entirely from the cell cache.
        assert verdict["cache"]["misses"] == 0
        assert verdict["hit_rate"] >= 0.9

    def test_verify_rejects_a_tampered_report(self, loop):
        tampered = copy.deepcopy(loop["report"])
        tampered["repairs"][0]["repair"]["name"] = "free-lunch"
        executor = SweepRunner(cache=loop["cache"])
        verdict = verify_replay(loop["spec"], loop["search"], tampered,
                                executor=executor)
        assert verdict["stamp_valid"] is False
        assert verdict["verified"] is False

    def test_first_run_populated_the_cache(self, loop):
        stats = loop["first_stats"]
        assert stats["misses"] > 0
        assert len(loop["cache"].keys()) == stats["misses"]

    def test_repair_requires_a_search_document(self):
        with pytest.raises(ValueError, match="redteam_search/v1"):
            run_repair(mini_spec(), {"schema": "experiment_sweep/v1"},
                       executor=SweepRunner())

    def test_repair_requires_candidates(self, loop):
        with pytest.raises(ValueError, match="repair candidates"):
            run_repair(mini_spec(repairs=[]), loop["search"],
                       executor=SweepRunner())


# ----------------------------------------------------------------------
# document invariants
# ----------------------------------------------------------------------
class TestDocuments:
    def test_search_document_is_json_pure(self):
        document = run_search(mini_spec(max_cells=1, rounds=0),
                              executor=SweepRunner())
        assert json.loads(search_to_json(document)) == document
