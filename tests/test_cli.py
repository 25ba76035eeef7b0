"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import _base_spec, build_parser, main
from repro.experiments import default_flood_spec, default_onoff_spec

SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "specs")
GRIDS_DIR = os.path.join(SPECS_DIR, "grids")
FLOOD_SPEC, ONOFF_SPEC, VICTIM_SPEC, ATTACKER_SPEC = (
    os.path.join(SPECS_DIR, f"{name}.json") for name in (
        "flood_aitf", "onoff_aitf", "victim_resources", "attacker_resources"))


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flood_defaults(self):
        """No flag and no spec file: ``run`` is the canonical flood experiment."""
        args = build_parser().parse_args(["run"])
        assert (args.attack_pps, args.legit_pps, args.detection_delay) == (None,) * 3
        assert _base_spec(args) == default_flood_spec()
        args = build_parser().parse_args(["run", "--attack-pps", "800"])
        assert _base_spec(args) == default_flood_spec(attack_pps=800.0)

    def test_onoff_and_resources_flags(self):
        """What the removed flags spelled is a ``--spec`` file plus ``--set``."""
        args = build_parser().parse_args([
            "run", "--spec", ONOFF_SPEC, "--set", "defense.params.shadow_enabled=false"])
        assert _base_spec(args) == default_onoff_spec(shadow_enabled=False)
        args = build_parser().parse_args([
            "run", "--spec", ATTACKER_SPEC, "--set", "workloads.0.params.rate=2"])
        assert _base_spec(args).workloads[0].params["rate"] == 2

    def test_unknown_command_rejected(self):
        for command in ("not-a-command", "flood", "onoff", "resources", "bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    @pytest.mark.parametrize("command", [
        "run --spec {spec}", "compare --spec {spec}",
        "sweep --spec {spec} --param seed=1,2", "sweep --request {grid}",
        "trace record --spec {spec}", "profile --spec {spec}"])
    def test_flood_flags_fail_closed_next_to_a_spec_file(self, capsys, command):
        """They used to be silently ignored: a table for the wrong experiment."""
        argv = command.format(
            spec=VICTIM_SPEC, grid=os.path.join(GRIDS_DIR, "failover.json")).split()
        for flag in ("--attack-pps", "--legit-pps", "--detection-delay"):
            with pytest.raises(SystemExit) as error:
                main([*argv, flag, "9999"])
            assert error.value.code == 2
            message = capsys.readouterr().err
            assert flag in message and "--set PATH=VALUE" in message


class TestFloodCommand:
    """``repro run`` on the canonical flood (what ``repro flood`` was)."""

    def test_table_output(self, capsys):
        code = main(["run", "--spec", FLOOD_SPEC,
                     "--set", "workloads.1.params.rate_pps=800"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Experiment: flood-aitf [aitf]" in out
        assert "effective-bandwidth ratio" in out

    def test_json_output_is_parseable(self, capsys):
        code = main(["--json", "run", "--duration", "4", "--attack-pps", "800"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["effective_bandwidth_ratio"] < 0.1
        assert payload["time_to_first_block"] is not None

    def test_no_aitf_baseline(self, capsys):
        code = main(["--json", "run", "--duration", "4", "--defense", "none"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["time_to_first_block"] is None
        assert payload["effective_bandwidth_ratio"] > 0.2

    def test_non_cooperating_list(self, capsys):
        code = main(["--json", "run", "--duration", "6",
                     "--set", 'defense.params.non_cooperating=["B_host","B_gw1"]',
                     "--set", "aitf.filter_timeout=30",
                     "--set", "aitf.temporary_filter_timeout=0.8"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["defense_stats"]["escalation_rounds"] >= 2


class TestOnOffCommand:
    def test_runs_and_reports(self, capsys):
        code = main(["--json", "run", "--spec", ONOFF_SPEC, "--duration", "8"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["workload_stats"][0]["cycles_completed"] >= 2


class TestResourcesCommand:
    def test_victim_role(self, capsys):
        code = main(["--json", "run", "--spec", VICTIM_SPEC,
                     "--set", "workloads.0.params.rate=50", "--duration", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["workload_stats"][0]["requests_sent"] == 150
        assert payload["collector_stats"]["paper"]["predicted_filters"] > 0

    def test_attacker_role(self, capsys):
        code = main(["--json", "run", "--spec", ATTACKER_SPEC, "--duration", "6",
                     "--set", "workloads.0.params.rate=2",
                     "--set", "aitf.filter_timeout=10"])
        stats = json.loads(capsys.readouterr().out)["collector_stats"]
        assert code == 0
        assert stats["paper"]["predicted_attacker_filters"] == 20
        assert stats["attacker-gw-filters"]["peak"] >= 5

    def test_table_output(self, capsys):
        """Workload and collector stats reach the table, not only ``--json``."""
        code = main(["run", "--spec", VICTIM_SPEC, "--duration", "2",
                     "--set", "workloads.0.params.rate=20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Experiment: victim-gateway-resources [aitf]" in out
        for row in ("[workload 0 filter-requests] requests_sent",
                    "[victim-gw-filters] peak", "[victim-gw-shadow] peak",
                    "[requests] requests_accepted", "[requests] requests_policed",
                    "[paper] predicted_filters", "[paper] predicted_shadow_entries"):
            assert row in out


class TestRunCommand:
    def test_default_spec_table_output(self, capsys):
        code = main(["run", "--duration", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Experiment: flood-defense [aitf]" in out
        assert "effective-bandwidth ratio" in out

    @pytest.mark.parametrize("defense", ["aitf", "pushback", "ingress-dpf",
                                         "manual", "none"])
    def test_every_defense_backend_runs_from_the_cli(self, capsys, defense):
        code = main(["--json", "run", "--defense", defense, "--duration", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["defense"] == defense
        assert payload["schema"] == "experiment_result/v1"
        assert payload["defense_stats"]["backend"] == defense

    def test_spec_file_plus_set_overrides(self, capsys):
        code = main(["--json", "run", "--spec", FLOOD_SPEC, "--duration", "2",
                     "--set", "workloads.1.params.rate_pps=800",
                     "--defense", "none"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["defense"] == "none"
        assert payload["spec"]["workloads"][1]["params"]["rate_pps"] == 800

    def test_seed_flag_changes_the_recorded_seed(self, capsys):
        code = main(["--json", "run", "--duration", "2", "--seed", "99"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["seed"] == 99
        assert payload["spec"]["seed"] == 99

    @pytest.mark.parametrize("topology", ["figure1", "dumbbell", "tree"])
    def test_topology_flag_runs_every_registered_topology(self, capsys, topology):
        code = main(["--json", "run", "--topology", topology, "--duration", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["topology"] == topology
        assert payload["defense"] == "aitf"
        assert payload["attack_received_bps"] >= 0.0


class TestCompareCommand:
    def test_compare_three_backends_table(self, capsys):
        code = main(["compare", "--defenses", "aitf,pushback,none",
                     "--duration", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Defense comparison" in out
        for name in ("aitf", "pushback", "none"):
            assert name in out

    def test_compare_json_is_one_result_per_backend(self, capsys):
        code = main(["--json", "compare", "--defenses", "aitf,none",
                     "--duration", "2", "--seed", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["defense"] for r in payload] == ["aitf", "none"]
        # Paired comparison: every backend sees the same seed.
        assert {r["seed"] for r in payload} == {4}

    def test_unknown_defense_fails_fast(self, capsys):
        with pytest.raises(ValueError, match="unknown defense backend"):
            main(["compare", "--defenses", "aitf,nope", "--duration", "2"])


class TestSweepCommand:
    def test_sweep_requires_a_param(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--duration", "1"])

    def test_sweep_writes_versioned_document(self, capsys, tmp_path):
        target = tmp_path / "sweep.json"
        code = main(["sweep", "--param", "defense.backend=aitf,none",
                     "--duration", "1.5", "--output", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep: 2 cells" in out
        doc = json.loads(target.read_text())
        assert doc["schema"] == "experiment_sweep/v1"
        assert len(doc["cells"]) == 2
        assert doc["grid"] == {"defense.backend": ["aitf", "none"]}

    def test_sweep_json_output_with_workers(self, capsys):
        code = main(["--json", "sweep", "--param", "duration=1,2",
                     "--workers", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [c["result"]["duration"] for c in payload["cells"]] == [1.0, 2.0]


class TestSeedFlagOnClassicCommands:
    """``--seed`` on the invocations that replaced the classic commands."""

    def test_flood_seed_round_trips(self, capsys):
        code = main(["--json", "run", "--spec", FLOOD_SPEC, "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["spec"]["seed"] == 5

    def test_onoff_and_resources_accept_seed(self):
        for path in (ONOFF_SPEC, VICTIM_SPEC):
            args = build_parser().parse_args(["run", "--spec", path, "--seed", "3"])
            assert _base_spec(args).seed == 3


class TestClusterSweepCommand:
    def grid_args(self):
        return ["--param", "defense.backend=aitf,none", "--duration", "1.5"]

    def test_enqueue_only_then_resume_merges_byte_identical(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        code = main(["sweep", *self.grid_args(),
                     "--output", str(serial_path)])
        assert code == 0
        cluster = tmp_path / "queue"
        code = main(["sweep", *self.grid_args(), "--cluster", str(cluster),
                     "--enqueue-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "enqueued sweep: 2 cells" in out
        merged_path = tmp_path / "merged.json"
        code = main(["sweep", *self.grid_args(), "--cluster", str(cluster),
                     "--resume", "--output", str(merged_path)])
        assert code == 0
        assert merged_path.read_bytes() == serial_path.read_bytes()
        sidecar = json.loads((tmp_path / "merged.provenance.json").read_text())
        assert sidecar["schema"] == "sweep_provenance/v1"
        assert sidecar["mode"] == "cluster"

    def test_rerunning_without_resume_fails_loudly(self, capsys, tmp_path):
        cluster = tmp_path / "queue"
        assert main(["sweep", *self.grid_args(),
                     "--cluster", str(cluster)]) == 0
        capsys.readouterr()
        # A clean CLI error (SystemExit with the hint), not a traceback.
        with pytest.raises(SystemExit, match="--resume"):
            main(["sweep", *self.grid_args(), "--cluster", str(cluster)])

    def test_worker_parser_defaults(self):
        args = build_parser().parse_args(["worker", "--cluster", "/q"])
        assert args.cluster == "/q"
        assert args.lease == 30.0
        assert args.max_cells is None

    def test_worker_drains_a_submitted_queue(self, capsys, tmp_path):
        cluster = tmp_path / "queue"
        assert main(["sweep", *self.grid_args(), "--cluster", str(cluster),
                     "--enqueue-only"]) == 0
        capsys.readouterr()
        code = main(["--json", "worker", "--cluster", str(cluster),
                     "--idle-timeout", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["executed"] == 2
        assert payload["stop_reason"] == "run_complete"

    def test_cluster_only_flags_rejected_without_cluster(self):
        for flag in ("--resume", "--enqueue-only"):
            with pytest.raises(SystemExit, match="--cluster"):
                main(["sweep", "--param", "duration=1", flag])

    def test_workers_flag_rejected_with_cluster(self, tmp_path):
        with pytest.raises(SystemExit, match="repro worker"):
            main(["sweep", "--param", "duration=1", "--workers", "4",
                  "--cluster", str(tmp_path / "q")])


class TestReportCommand:
    def test_report_renders_sweep_markdown_and_csv(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "defense.backend=aitf,none",
                     "--duration", "1.5", "--output", str(sweep_path)]) == 0
        capsys.readouterr()
        code = main(["report", str(sweep_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# repro report — sweep")
        assert "## Provenance" in out  # sidecar picked up automatically
        md_path, csv_path = tmp_path / "r.md", tmp_path / "r.csv"
        code = main(["report", str(sweep_path), "--output", str(md_path),
                     "--csv", str(csv_path)])
        assert code == 0
        assert "defense.backend" in md_path.read_text()
        assert csv_path.read_text().startswith("index,defense.backend,")

    def test_report_rejects_non_experiment_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="unrecognised"):
            main(["report", str(bogus)])


def _write_tiny_grid(tmp_path):
    """One CI-sized sweep-request file for paper/report tests."""
    from repro.experiments import default_victim_resource_spec

    grids = tmp_path / "grids"
    grids.mkdir()
    base = default_victim_resource_spec(request_rate=10.0, sources=5,
                                        duration=1.0)
    (grids / "tiny.json").write_text(json.dumps({
        "schema": "sweep_request/v1",
        "base_spec": base.to_dict(),
        "grid": {"workloads.0.params.rate": [10.0, 20.0]},
        "quick": {"grid": {"workloads.0.params.rate": [10.0]}},
        "figures": [{"name": "accepted", "x": "workloads.0.params.rate",
                     "y": "collector_stats.requests.requests_accepted"}],
    }))
    return grids


class TestSweepRequestFlag:
    def test_request_runs_a_committed_grid(self, capsys, tmp_path):
        grids = _write_tiny_grid(tmp_path)
        out_path = tmp_path / "sweep.json"
        code = main(["sweep", "--request", str(grids / "tiny.json"),
                     "--output", str(out_path)])
        assert code == 0
        assert "Sweep: 2 cells" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert len(doc["cells"]) == 2
        assert doc["cells"][0]["result"]["collector_stats"]["requests"]

    def test_request_quick_variant(self, capsys, tmp_path):
        grids = _write_tiny_grid(tmp_path)
        code = main(["--json", "sweep", "--request", str(grids / "tiny.json"),
                     "--quick"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["cells"]) == 1

    def test_request_excludes_param(self, tmp_path):
        grids = _write_tiny_grid(tmp_path)
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["sweep", "--request", str(grids / "tiny.json"),
                  "--param", "duration=1"])

    def test_quick_needs_request(self):
        with pytest.raises(SystemExit, match="--quick only applies"):
            main(["sweep", "--param", "duration=1", "--quick"])


class TestReportPlot:
    def _sweep(self, tmp_path):
        path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "defense.backend=aitf,none",
                     "--param", "workloads.1.params.rate_pps=1500,3000",
                     "--duration", "1", "--output", str(path)]) == 0
        return path

    def test_plot_builtin_writes_deterministic_svgs(self, capsys, tmp_path):
        sweep_path = self._sweep(tmp_path)
        figs = tmp_path / "figs"
        code = main(["report", str(sweep_path), "--plot",
                     "--renderer", "builtin", "--figures-dir", str(figs)])
        assert code == 0
        capsys.readouterr()
        names = sorted(p.name for p in figs.iterdir())
        assert names == ["effective-bandwidth-ratio.svg",
                         "legit-goodput-bps.svg"]
        first = (figs / names[0]).read_bytes()
        assert main(["report", str(sweep_path), "--plot",
                     "--renderer", "builtin", "--figures-dir", str(figs)]) == 0
        assert (figs / names[0]).read_bytes() == first

    def test_plot_default_renderer_errors_cleanly_without_matplotlib(
            self, tmp_path, monkeypatch):
        from repro.analysis import figures as figures_mod

        monkeypatch.setattr(figures_mod, "have_matplotlib", lambda: False)
        sweep_path = self._sweep(tmp_path)
        with pytest.raises(SystemExit,
                           match=r"pip install '\.\[plot\]'") as excinfo:
            main(["report", str(sweep_path), "--plot",
                  "--figures-dir", str(tmp_path / "figs")])
        assert "matplotlib is not installed" in str(excinfo.value)

    def test_figures_dir_requires_plot(self, tmp_path):
        sweep_path = self._sweep(tmp_path)
        with pytest.raises(SystemExit, match="only apply with --plot"):
            main(["report", str(sweep_path), "--figures-dir", "x"])

    def test_plot_rejects_non_sweep_documents(self, capsys, tmp_path):
        result_path = tmp_path / "result.json"
        assert main(["--json", "run", "--duration", "1"]) == 0
        result_path.write_text(capsys.readouterr().out)
        with pytest.raises(SystemExit, match="experiment_sweep/v1"):
            main(["report", str(result_path), "--plot"])


class TestPaperCommand:
    def test_paper_runs_grids_and_writes_gallery(self, capsys, tmp_path):
        grids = _write_tiny_grid(tmp_path)
        output = tmp_path / "out"
        code = main(["paper", "--grids", str(grids), "--output", str(output),
                     "--renderer", "builtin"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Paper reproduction (full grids)" in out
        assert (output / "index.md").exists()
        assert (output / "sweeps" / "tiny.json").exists()
        assert (output / "sweeps" / "tiny.provenance.json").exists()
        assert (output / "reports" / "tiny.md").exists()
        assert (output / "figures" / "tiny--accepted.svg").exists()
        gallery = (output / "index.md").read_text()
        assert "figures/tiny--accepted.svg" in gallery

    def test_paper_quick_is_deterministic_across_workers(self, tmp_path):
        grids = _write_tiny_grid(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["paper", "--grids", str(grids), "--quick",
                     "--output", str(first)]) == 0
        assert main(["paper", "--grids", str(grids), "--quick",
                     "--workers", "2", "--output", str(second)]) == 0
        assert ((first / "sweeps" / "tiny.json").read_bytes()
                == (second / "sweeps" / "tiny.json").read_bytes())
        assert ((first / "figures" / "tiny--accepted.svg").read_bytes()
                == (second / "figures" / "tiny--accepted.svg").read_bytes())
        assert ((first / "index.md").read_bytes()
                == (second / "index.md").read_bytes())

    def test_paper_runs_the_committed_grids_quick(self, capsys, tmp_path):
        output = tmp_path / "out"
        code = main(["--json", "paper", "--grids", GRIDS_DIR, "--quick",
                     "--output", str(output)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        names = [grid["name"] for grid in payload["grids"]]
        assert "e2_protected_flows" in names
        assert "e4_e5_attacker_resources" in names
        assert "powerlaw_scaling" in names
        for grid in payload["grids"]:
            assert grid["cells"] >= 1
            assert grid["figures"]

    def test_paper_rejects_workers_with_cluster(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers does not apply"):
            main(["paper", "--grids", GRIDS_DIR, "--cluster",
                  str(tmp_path / "q"), "--workers", "2"])

    def test_paper_errors_cleanly_on_empty_grids_dir(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no grid files"):
            main(["paper", "--grids", str(empty)])

