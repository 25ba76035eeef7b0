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

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_engine_shards_fails_with_the_removal_message(self, shards):
        data = default_flood_spec().to_dict()
        data["engine"] = {"mode": "train", "shards": shards}
        with pytest.raises(ValueError, match="sharded execution was removed"):
            ExperimentSpec.from_dict(data)

    def test_engine_shards_override_fails_the_cli_with_the_removal_message(
            self):
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        process = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--set", "engine.shards=2"],
            capture_output=True, text=True, env=env)
        assert process.returncode != 0
        assert "sharded execution was removed" in process.stderr

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
        with pytest.raises(ValueError) as excinfo:  # when the spec is parsed
            default_flood_spec().with_overrides({"defense.backend": "firewall"})
        message = str(excinfo.value)
        assert "firewall" in message
        for name in ("aitf", "pushback", "ingress-dpf", "manual", "none"):
            assert name in message

    def test_unknown_workload_error_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:  # when the spec is parsed
            default_flood_spec().with_overrides({"workloads.1.kind": "teardrop"})
        assert "teardrop" in str(excinfo.value)
        assert "flood" in str(excinfo.value)

    def test_unknown_topology_error_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:  # when the spec is parsed
            default_flood_spec().with_overrides({"topology.kind": "torus"})
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


#: Content addresses of the committed specs (the cluster cell cache is keyed
#: by them): a change to spec canonicalisation must not move any of them.
COMMITTED_SPEC_HASHES = {
    "attacker_resources.json":
        "66919dd78295508242f0001450994611191604dcc122a468bed10e1c5ce64768",
    "flood_aitf.json":
        "8d461e944c6f68d94e12f2a179e1606b0daa57b1d7161684707136c878a25f04",
    "flood_ingress_dpf.json":
        "ce64242a362a5242c6f1cd89628ded1f2abb4567e406571ac5d0464e06bb0f79",
    "flood_manual.json":
        "643ba7821451ff88c99e234db44014c7a7a4196cae8ceaaeb667de1898386c53",
    "flood_none.json":
        "761e2c5d36dfba30839f0744775a7af8269e2db5c1c2be3df1db4a70f5460d15",
    "flood_pushback.json":
        "a10f5d05f0386103b5a14f13dd88421a0d824235f0b756e00334d4c26bf09e66",
    "grids/e2_protected_flows.json":
        "eb8aa05f440982c8387ca31c7a3cf5e9fda0e1ddddaa574a4d7205ed8e62c21a",
    "grids/e2b_contract_policing.json":
        "60c58a5037fa705009f3effde1b019b962b27c99ac5b1af395bf242d2edaf6b9",
    "grids/e3_victim_gateway_resources.json":
        "f5419529d301ab983c7807cdd2e57e18d8c0634abdb13c07edd08f4acf5c5e2a",
    "grids/e3b_ttmp_ablation.json":
        "faa75162ade3343bd14a847b081020766f87a59c57974a5fbc678388f9358c24",
    "grids/e4_e5_attacker_resources.json":
        "7ae89d9886d3fca86c62709aefb1083608f921ff8c4a3a01714fdd5b97e64088",
    "grids/e9_defense_comparison.json":
        "0a43cbbe162847568d73a7aa03e43c295d043e9af418155a2dd0d433b1673519",
    "grids/failover.json":
        "469af69b1e25c7fdb5fef3b6d5fc1116ddc17803c41db244849a77fc8a2f1f80",
    "grids/onoff_evasion.json":
        "1637de04357823c1407db369dd1655937e0b1919e5296fb9ec5865dfb7aa84b8",
    "grids/partial_deployment.json":
        "4d4af9a36363f9f26b20d5a740c5b58730908d50e7984999a8e89b8c426542ec",
    "grids/powerlaw_scaling.json":
        "8edd573b2d8de03c3ae7c8e2bef33dea6ac2b44bed04076e1c3e7bcc21c7f0a0",
    "grids/redteam_exhaustion.json":
        "15ae97a841d6cac0e74fb1b82943597199f69df646c794099b86ac29511dca73",
    "onoff_aitf.json":
        "8aa78590e72a1460103c63b67c5b5be3c2f3ac3e573a63483b1473f841502166",
    "redteam_quick.json":
        "15ae97a841d6cac0e74fb1b82943597199f69df646c794099b86ac29511dca73",
    "victim_resources.json":
        "54a7a4668a3a028f2c6c69444597a2706ddd106f883bb583a373e83d576c535e",
}


class TestCommittedSpecs:
    @pytest.mark.parametrize("data", _committed_specs())
    def test_committed_spec_loads_strictly_and_wires(self, data):
        ExperimentRunner().prepare(ExperimentSpec.from_dict(data))

    def test_committed_spec_hashes_are_pinned(self):
        from repro.experiments import spec_hash

        hashes = {param.id: spec_hash(param.values[0])
                  for param in _committed_specs()}
        assert hashes == COMMITTED_SPEC_HASHES

    @pytest.mark.parametrize("name", sorted(BUILT_SPECS))
    def test_built_spec_file_is_its_builders_output(self, name):
        with open(os.path.join(SPECS_DIR, name)) as handle:
            assert handle.read() == BUILT_SPECS[name]().to_json() + "\n"


def _placed(slot, entry, params):
    """A spec dict carrying ``params`` for registry ``slot``'s ``entry`` (or
    the ``aitf`` block), and the dotted path of those params."""
    if slot == "topology":
        return {"topology": {"kind": entry, "params": params}}, "topology.params"
    if slot == "defense":
        return {"defense": {"backend": entry, "params": params}}, "defense.params"
    if slot == "workload":
        return {"workloads": [{"kind": entry, "params": params}]}, "workloads.0.params"
    if slot == "collector":
        return ({"collectors": [{"kind": entry, "params": params}]},
                "collectors.0.params")
    return {"aitf": params}, "aitf"


def _declared_defaults(slot, entry):
    """Registry ``slot``'s defaults for ``entry`` (the ``aitf`` block: none)."""
    from repro.experiments import COLLECTORS

    registry = {"topology": TOPOLOGIES, "defense": DEFENSES,
                "workload": WORKLOADS, "collector": COLLECTORS}.get(slot)
    return {} if registry is None else registry.defaults(entry)


def _well_typed(default):
    """A value a parameter with ``default`` takes."""
    if isinstance(default, bool):
        return True
    if isinstance(default, str):
        return "x"
    if isinstance(default, (list, tuple)):
        return []
    return 1


def _component_cases():
    """(slot, entry, declared names, name the error message uses) for every
    registry entry and for the ``aitf`` block."""
    from repro.experiments import COLLECTORS
    from repro.experiments.spec import AITF_PARAMETERS

    cases = []
    for slot, registry in (("topology", TOPOLOGIES), ("defense", DEFENSES),
                           ("workload", WORKLOADS), ("collector", COLLECTORS)):
        for entry in registry.names():
            component = "defense" if slot == "defense" else repr(entry)
            cases.append(pytest.param(slot, entry, registry.parameters(entry),
                                      component, id=f"{slot}-{entry}"))
    cases.append(pytest.param("aitf", None, AITF_PARAMETERS, "aitf", id="aitf"))
    return cases


class TestDeclaredParameters:
    """Every component's parameters are its builder's keyword arguments; a
    name it does not declare is refused when the spec is parsed."""

    @pytest.mark.parametrize("slot, entry, declared, component", _component_cases())
    def test_unknown_parameter_is_refused_when_parsed(self, slot, entry,
                                                      declared, component):
        data, _ = _placed(slot, entry, {"rate_ppz": 9000})
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict(data)
        message = str(excinfo.value)
        assert component in message and "rate_ppz" in message
        for name in declared:
            assert name in message

    @pytest.mark.parametrize("slot, entry, declared, component", _component_cases())
    def test_every_declared_parameter_is_accepted(self, slot, entry, declared,
                                                  component):
        defaults = _declared_defaults(slot, entry)
        params = {name: _well_typed(defaults.get(name)) for name in declared}
        data, path = _placed(slot, entry, params)
        node = ExperimentSpec.from_dict(data).to_dict()
        for segment in path.split("."):
            node = node[int(segment)] if isinstance(node, list) else node[segment]
        assert node == params

    @pytest.mark.parametrize("slot, entry, declared, component", _component_cases())
    def test_grid_axis_naming_an_unknown_parameter_fails_during_expansion(
            self, slot, entry, declared, component):
        from repro.experiments import SweepRunner

        data, path = _placed(slot, entry, {})
        base = ExperimentSpec.from_dict(data)
        progress = []
        with pytest.raises(ValueError, match="rate_ppz"):
            SweepRunner(progress=progress.append).run_grid(
                base, {f"{path}.rate_ppz": [1000, 9000]})
        assert progress == []

    def test_defense_backend_axis_over_aitf_only_params_runs(self):
        base = default_flood_spec(duration=1.0).with_overrides({
            "defense.params.non_cooperating_attackers": True,
            "defense.params.deployment": "victim-stub"})
        cells = expand_grid(base, {"defense.backend": DEFENSES.names()},
                            reseed=False)
        for cell in cells:
            result = ExperimentRunner().run(cell.spec)
            assert result.defense == cell.spec.defense.backend

    @pytest.mark.parametrize("slot, entry, params, refused", [
        ("workload", "flood", {"rate_pps": "fast"},
         "rate_pps='fast' (want a number)"),
        ("workload", "flood", {"rate_pps": True},
         "rate_pps=True (want a number)"),
        ("workload", "flood", {"packet_size": None},
         "packet_size=None (want a number)"),
        ("workload", "flood", {"spoofed": 1}, "spoofed=1 (want true or false)"),
        ("workload", "flood", {"spoofed": "yes", "start": [0]},
         "spoofed='yes' (want true or false), start=[0] (want a number)"),
        ("defense", "aitf", {"non_cooperating": "B_host"},
         "non_cooperating='B_host' (want a list)"),
        ("defense", "aitf", {"compromised_routers": {"R1": True}},
         "compromised_routers={'R1': True} (want a list)"),
        ("defense", "aitf", {"deployment": 7}, "deployment=7 (want a string)"),
        ("defense", "aitf", {"deployment": ["all"]},
         "deployment=['all'] (want a string)"),
        ("collector", "filter-occupancy", {"node": None},
         "node=None (want a string)"),
    ], ids=["str-for-float", "bool-for-float", "none-for-int", "int-for-bool",
            "two", "str-for-list", "dict-for-list", "int-for-str",
            "list-for-str", "none-for-str"])
    def test_mistyped_value_is_refused_when_parsed(self, slot, entry, params,
                                                   refused):
        data, _ = _placed(slot, entry, params)
        kind = {"workload": "workload", "defense": "defense backend",
                "collector": "collector"}[slot]
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict(data)
        assert str(excinfo.value) == (
            f"bad {kind} {entry!r} parameter value(s): {refused}")

    def test_lists_and_tuples_cross_and_strings_stay_strings(self):
        params = {"non_cooperating": ("B_host",), "compromised_routers": [],
                  "deployment": "victim-stub"}
        data, _ = _placed("defense", "aitf", params)
        assert ExperimentSpec.from_dict(data).defense.params == params

    def test_numbers_cross_int_and_float_and_none_defaults_take_anything(self):
        params = {"rate_pps": 900, "packet_size": 1000.0, "spoofed": True,
                  "duration": "unchecked"}
        data, _ = _placed("workload", "flood", params)
        assert ExperimentSpec.from_dict(data).workloads[0].params == params

    @pytest.mark.parametrize("params, backend", [
        ({"shadow_enabled": 0}, "aitf"),
        ({"limit_bps": "1M"}, "pushback"),
    ])
    def test_defense_value_is_checked_by_the_chosen_backend(self, params,
                                                           backend):
        data, _ = _placed("defense", backend, params)
        with pytest.raises(ValueError, match=f"bad defense backend "
                                             f"'{backend}' parameter value"):
            ExperimentSpec.from_dict(data)
        other = "pushback" if backend == "aitf" else "aitf"
        data, _ = _placed("defense", other, params)
        assert ExperimentSpec.from_dict(data).defense.params == params

    def test_mistyped_grid_value_fails_during_expansion(self):
        with pytest.raises(ValueError, match="rate_pps='fast'"):
            expand_grid(default_flood_spec(),
                        {"workloads.1.params.rate_pps": [1000, "fast"]},
                        reseed=False)

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(SPECS_DIR, "grids", "*.json"))
        + glob.glob(os.path.join(SPECS_DIR, "..", "..", "bench", "workloads",
                                 "sweep_*.json"))),
        ids=os.path.basename)
    def test_every_committed_grid_cell_parses(self, path):
        from repro.experiments.request import SweepRequest

        request = SweepRequest.load(path)
        for quick in (False, True):
            resolved = request.resolve(quick=quick)
            assert expand_grid(resolved.base, resolved.grid,
                               reseed=resolved.reseed)

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
        SPECS_DIR, "..", "..", "bench", "workloads", "*.json"))),
        ids=os.path.basename)
    def test_every_bench_workload_parses(self, path):
        with open(path) as handle:
            data = json.load(handle)
        ExperimentSpec.from_dict(data.get("base_spec", data))
