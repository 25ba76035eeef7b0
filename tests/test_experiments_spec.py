"""Tests for experiment specs: JSON round-trips, registries, overrides."""

import glob
import json
import os

import pytest

from repro.experiments import (
    DEFENSES,
    TOPOLOGIES,
    WORKLOADS,
    DefenseSpec,
    ExperimentRunner,
    ExperimentSpec,
    TopologySpec,
    WorkloadSpec,
    apply_override,
    default_attacker_resource_spec,
    default_flood_spec,
    default_onoff_spec,
    default_victim_resource_spec,
    expand_grid,
)
from repro.experiments.sweep import derive_cell_seed


class TestSpecRoundTrip:
    def test_spec_to_json_to_spec_is_identity(self):
        spec = default_flood_spec(defense="pushback", attack_pps=2500.0,
                                  duration=6.0, seed=42)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()

    def test_round_trip_preserves_nested_params(self):
        spec = ExperimentSpec(
            name="custom",
            topology=TopologySpec("dumbbell", {"sources": 5}),
            defense=DefenseSpec("manual", {"local_response_delay": 2.0}),
            workloads=(WorkloadSpec("zombies", {"count": 3, "spoofed": True}),),
            aitf={"filter_timeout": 30.0},
            detection_delay=0.05,
            duration=4.0,
            seed=9,
            sample_occupancy=False,
        )
        restored = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert restored == spec

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = default_flood_spec(seed=3)
        spec.save(str(path))
        assert ExperimentSpec.load(str(path)) == spec

    def test_schema_tag_is_written_and_checked(self):
        data = default_flood_spec().to_dict()
        assert data["schema"] == "experiment_spec/v1"
        data["schema"] = "experiment_spec/v999"
        with pytest.raises(ValueError, match="unsupported spec schema"):
            ExperimentSpec.from_dict(data)

    def test_unknown_spec_keys_rejected(self):
        data = default_flood_spec().to_dict()
        data["topologgy"] = {"kind": "figure1"}
        with pytest.raises(ValueError, match="topologgy"):
            ExperimentSpec.from_dict(data)

    def test_mutating_the_dict_does_not_mutate_the_spec(self):
        spec = default_flood_spec()
        data = spec.to_dict()
        data["workloads"][1]["params"]["rate_pps"] = 9999.0
        assert spec.workloads[1].params["rate_pps"] == 1500.0


class TestRegistries:
    def test_expected_names_are_registered(self):
        assert {"aitf", "pushback", "ingress-dpf", "manual", "none"} <= set(DEFENSES.names())
        assert {"figure1", "tree", "dumbbell", "powerlaw"} <= set(TOPOLOGIES.names())
        assert {"flood", "onoff", "legitimate", "zombies"} <= set(WORKLOADS.names())

    def test_unknown_backend_error_lists_choices(self):
        spec = default_flood_spec().with_overrides({"defense.backend": "firewall"})
        with pytest.raises(ValueError) as excinfo:
            ExperimentRunner().run(spec)
        message = str(excinfo.value)
        assert "firewall" in message
        for name in ("aitf", "pushback", "ingress-dpf", "manual", "none"):
            assert name in message

    def test_unknown_workload_error_lists_choices(self):
        spec = default_flood_spec().with_overrides({"workloads.1.kind": "teardrop"})
        with pytest.raises(ValueError) as excinfo:
            ExperimentRunner().run(spec)
        assert "teardrop" in str(excinfo.value)
        assert "flood" in str(excinfo.value)

    def test_unknown_topology_error_lists_choices(self):
        spec = default_flood_spec().with_overrides({"topology.kind": "torus"})
        with pytest.raises(ValueError) as excinfo:
            ExperimentRunner().run(spec)
        assert "torus" in str(excinfo.value)
        assert "figure1" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            DEFENSES.register("aitf", object)


class TestOverrides:
    def test_dotted_paths_reach_dicts_and_lists(self):
        spec = default_flood_spec()
        derived = spec.with_overrides({
            "defense.backend": "pushback",
            "defense.params.limit_bps": 2e6,
            "workloads.1.params.rate_pps": 4000.0,
            "duration": 2.5,
        })
        assert derived.defense.backend == "pushback"
        assert derived.defense.params["limit_bps"] == 2e6
        assert derived.workloads[1].params["rate_pps"] == 4000.0
        assert derived.duration == 2.5
        # base spec untouched
        assert spec.defense.backend == "aitf"

    def test_bad_list_index_is_a_clear_error(self):
        data = default_flood_spec().to_dict()
        with pytest.raises(ValueError, match="out of range"):
            apply_override(data, "workloads.7.params.rate_pps", 1.0)
        with pytest.raises(ValueError, match="list index"):
            apply_override(data, "workloads.first.params.rate_pps", 1.0)


class TestGridExpansion:
    def test_cartesian_product_in_axis_order(self):
        base = default_flood_spec(duration=2.0)
        cells = expand_grid(base, {
            "defense.backend": ["aitf", "none"],
            "workloads.1.params.rate_pps": [1000.0, 2000.0, 3000.0],
        })
        assert len(cells) == 6
        assert [c.overrides["defense.backend"] for c in cells] == \
            ["aitf"] * 3 + ["none"] * 3
        assert [c.index for c in cells] == list(range(6))
        assert cells[1].spec.workloads[1].params["rate_pps"] == 2000.0

    def test_cell_seeds_are_derived_and_distinct(self):
        base = default_flood_spec(seed=5)
        cells = expand_grid(base, {"defense.backend": ["aitf", "pushback", "none"]})
        seeds = [c.spec.seed for c in cells]
        assert len(set(seeds)) == 3
        assert seeds == [derive_cell_seed(5, c.overrides) for c in cells]

    def test_reseed_false_keeps_base_seed(self):
        base = default_flood_spec(seed=5)
        cells = expand_grid(base, {"defense.backend": ["aitf", "none"]},
                            reseed=False)
        assert all(c.spec.seed == 5 for c in cells)

    def test_derivation_is_stable_and_order_insensitive(self):
        a = derive_cell_seed(1, {"x": 1, "y": "aitf"})
        b = derive_cell_seed(1, {"y": "aitf", "x": 1})
        assert a == b
        assert derive_cell_seed(2, {"x": 1, "y": "aitf"}) != a
        # Pinned: the derivation must never depend on PYTHONHASHSEED.
        assert a == derive_cell_seed(1, {"x": 1, "y": "aitf"})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid(default_flood_spec(), {"duration": []})


class TestCanonicalSpecHash:
    """Content addressing for the cluster cell cache: the hash must depend
    on what the experiment *is*, never on how the dict was spelled or
    which process computed it."""

    def test_hash_is_stable_across_key_order(self):
        from repro.experiments import spec_hash

        spec = default_flood_spec(defense="pushback", duration=4.0, seed=3)
        data = spec.to_dict()
        shuffled = dict(reversed(list(data.items())))
        shuffled["topology"] = dict(reversed(list(data["topology"].items())))
        assert spec_hash(spec) == spec_hash(data) == spec_hash(shuffled)

    def test_hash_is_stable_across_json_round_trips(self):
        from repro.experiments import spec_hash

        spec = default_flood_spec(duration=2.5, seed=11)
        assert spec_hash(spec) == spec_hash(json.loads(spec.to_json()))

    def test_equivalent_spellings_of_values_canonicalise_together(self):
        from repro.experiments import spec_hash

        data = default_flood_spec(duration=4.0).to_dict()
        as_int = dict(data)
        as_int["duration"] = 4            # int vs float spelling
        as_int["seed"] = 0
        assert spec_hash(data) == spec_hash(as_int)

    def test_semantic_changes_change_the_hash(self):
        from repro.experiments import spec_hash

        base = default_flood_spec(duration=4.0)
        assert spec_hash(base) != spec_hash(base.with_overrides({"seed": 1}))
        assert spec_hash(base) != spec_hash(
            base.with_overrides({"defense.backend": "pushback"}))

    def test_hash_is_stable_across_process_boundaries(self):
        import subprocess
        import sys

        from repro.experiments import spec_hash

        spec = default_flood_spec(defense="pushback", duration=3.0, seed=42)
        script = (
            "import json,sys;"
            "from repro.experiments import ExperimentSpec, spec_hash;"
            "print(spec_hash(json.loads(sys.stdin.read())))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        # A different hash seed would expose any hash()-dependence.
        env["PYTHONHASHSEED"] = "12345"
        output = subprocess.run(
            [sys.executable, "-c", script], input=spec.to_json(),
            capture_output=True, text=True, env=env, check=True).stdout.strip()
        assert output == spec_hash(spec)

    def test_canonical_json_is_minimal_and_sorted(self):
        from repro.experiments import canonical_spec_json

        text = canonical_spec_json(default_flood_spec(duration=2.0))
        assert ": " not in text and ", " not in text  # compact separators
        data = json.loads(text)
        assert list(data) == sorted(data)

    def test_invalid_spec_dicts_are_rejected_not_hashed(self):
        from repro.experiments import spec_hash

        with pytest.raises(ValueError, match="unknown experiment spec"):
            spec_hash({"schema": "experiment_spec/v1", "bogus_key": 1})


SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "specs")

#: Committed specs that must stay byte-equal to their builder's output.
BUILT_SPECS = {
    "onoff_aitf.json": default_onoff_spec,
    "victim_resources.json": default_victim_resource_spec,
    "attacker_resources.json": default_attacker_resource_spec,
}


def _committed_specs():
    """Every committed experiment_spec/v1 file, and every grid's base spec."""
    for path in sorted(glob.glob(f"{SPECS_DIR}/**/*.json", recursive=True)):
        with open(path) as handle:
            data = json.load(handle)
        data = data.get("base_spec", data)
        if data.get("schema") == "experiment_spec/v1":
            yield pytest.param(data, id=os.path.relpath(path, SPECS_DIR))


class TestCommittedSpecs:
    @pytest.mark.parametrize("data", _committed_specs())
    def test_committed_spec_loads_strictly_and_wires(self, data):
        ExperimentRunner().prepare(ExperimentSpec.from_dict(data))

    @pytest.mark.parametrize("name", sorted(BUILT_SPECS))
    def test_built_spec_file_is_its_builders_output(self, name):
        with open(os.path.join(SPECS_DIR, name)) as handle:
            assert handle.read() == BUILT_SPECS[name]().to_json() + "\n"
