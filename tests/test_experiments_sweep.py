"""Tests for the sweep runner: expansion, parallel determinism, output."""

import json

import pytest

from repro.experiments import SweepRunner, default_flood_spec


def small_grid():
    return {
        "defense.backend": ["aitf", "none"],
        "workloads.1.params.rate_pps": [1200.0, 2400.0],
    }


class TestSweepExecution:
    def test_grid_produces_one_cell_per_combination(self):
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=2.0), small_grid())
        assert len(sweep.cells) == 4
        assert [c["index"] for c in sweep.cells] == [0, 1, 2, 3]
        backends = [c["result"]["defense"] for c in sweep.cells]
        assert backends == ["aitf", "aitf", "none", "none"]

    def test_cells_record_overrides_seed_and_result_schema(self):
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=2.0),
            {"defense.backend": ["aitf"]})
        cell = sweep.cells[0]
        assert cell["overrides"] == {"defense.backend": "aitf"}
        assert cell["result"]["schema"] == "experiment_result/v1"
        assert cell["result"]["seed"] == cell["seed"]
        assert sweep.to_dict()["schema"] == "experiment_sweep/v1"

    def test_parallel_and_serial_sweeps_are_identical(self):
        base = default_flood_spec(duration=2.0)
        serial = SweepRunner(workers=1).run_grid(base, small_grid())
        parallel = SweepRunner(workers=2).run_grid(base, small_grid())
        # The canonical document is execution-independent, so the comparison
        # is exact — worker count only appears in the provenance sidecar.
        assert serial.to_dict() == parallel.to_dict()
        assert serial.to_json() == parallel.to_json()
        assert serial.provenance["workers"] == 1
        assert parallel.provenance["workers"] == 2

    def test_sweep_repeats_identically(self):
        base = default_flood_spec(duration=2.0)
        grid = {"defense.backend": ["aitf", "pushback"]}
        first = SweepRunner(workers=1).run_grid(base, grid)
        second = SweepRunner(workers=1).run_grid(base, grid)
        assert first.to_dict() == second.to_dict()

    def test_written_document_round_trips(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=2.0), {"duration": [1.5]})
        sweep.write(str(path))
        doc = json.loads(path.read_text())
        assert doc == json.loads(sweep.to_json())
        assert doc["grid"] == {"duration": [1.5]}

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=0)


class TestSweepSeeds:
    def test_cells_get_distinct_derived_seeds_by_default(self):
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=1.5, seed=7),
            {"defense.backend": ["aitf", "none"]})
        seeds = [c["seed"] for c in sweep.cells]
        assert len(set(seeds)) == 2
        assert all(s != 7 for s in seeds)

    def test_reseed_false_pairs_cells_on_the_base_seed(self):
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=1.5, seed=7),
            {"defense.backend": ["aitf", "none"]}, reseed=False)
        assert [c["seed"] for c in sweep.cells] == [7, 7]

    def test_an_explicit_seed_axis_is_honoured_not_reseeded(self):
        from repro.experiments import expand_grid

        cells = expand_grid(default_flood_spec(seed=7), {"seed": [1, 2]})
        assert [c.spec.seed for c in cells] == [1, 2]
        assert [c.overrides for c in cells] == [{"seed": 1}, {"seed": 2}]


class TestSweepProvenance:
    def test_local_provenance_records_seed_cache_and_walls(self):
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=1.5, seed=7),
            {"defense.backend": ["aitf", "none"]})
        provenance = sweep.provenance_dict()
        assert provenance["schema"] == "sweep_provenance/v1"
        assert provenance["mode"] == "local"
        assert provenance["root_seed"] == 7
        assert provenance["cache"] == {"hits": 0, "misses": 2}
        assert provenance["wall_seconds"] > 0
        assert [c["index"] for c in provenance["cells"]] == [0, 1]
        for record in provenance["cells"]:
            assert record["wall_seconds"] > 0
            assert len(record["spec_hash"]) == 64
        json.dumps(provenance)

    def test_provenance_sidecar_written_next_to_the_document(self, tmp_path):
        from repro.experiments import provenance_sidecar_path

        assert provenance_sidecar_path("out/sweep.json") == \
            "out/sweep.provenance.json"
        assert provenance_sidecar_path("sweep") == "sweep.provenance.json"
        sweep = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=1.5), {"duration": [1.0]})
        path = tmp_path / "sweep.json"
        sweep.write(str(path))
        sweep.write_provenance(provenance_sidecar_path(str(path)))
        sidecar = json.loads((tmp_path / "sweep.provenance.json").read_text())
        assert sidecar["schema"] == "sweep_provenance/v1"
        # ... and the canonical document itself carries no provenance.
        assert "provenance" not in json.loads(path.read_text())
        assert "workers" not in json.loads(path.read_text())


class TestSharedMergePath:
    def test_merge_cell_documents_matches_runner_output(self):
        from repro.experiments import (
            execute_cell,
            expand_grid,
            merge_cell_documents,
        )

        base = default_flood_spec(duration=1.5)
        grid = {"defense.backend": ["aitf", "none"]}
        cells = expand_grid(base, grid)
        merged = merge_cell_documents(
            [c.to_dict() for c in cells],
            [execute_cell(c.spec.to_dict()) for c in cells])
        assert merged == SweepRunner(workers=1).run_grid(base, grid).cells

    def test_merge_rejects_misaligned_results(self):
        from repro.experiments import expand_grid, merge_cell_documents

        cells = expand_grid(default_flood_spec(), {"duration": [1.0, 2.0]})
        with pytest.raises(ValueError, match="2 cells but 1"):
            merge_cell_documents([c.to_dict() for c in cells], [{}])


class TestOneExecutor:
    """Serial, pool and cache-fronted runs share one resolve / publish /
    progress / provenance path (``CellResolver``)."""

    def test_pool_failure_falls_back_loudly_and_says_so_in_provenance(
            self, monkeypatch, caplog):
        import logging

        from repro.experiments import sweep as sweep_module

        def no_pool(workers):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(sweep_module, "_shared_pool", no_pool)
        base = default_flood_spec(duration=1.0)
        seen = []
        # The handler goes on the module's own logger: CLI tests earlier in
        # the process may have switched propagation off on "repro".
        sweep_log = logging.getLogger("repro.experiments.sweep")
        sweep_log.addHandler(caplog.handler)
        try:
            degraded = SweepRunner(workers=2, progress=seen.append).run_grid(
                base, small_grid())
        finally:
            sweep_log.removeHandler(caplog.handler)
        assert "running the remaining cells serially" in caplog.text
        provenance = degraded.provenance
        assert provenance["workers"] == 2            # what was asked for
        assert provenance["effective_workers"] == 1  # what actually ran
        assert "resource temporarily unavailable" in provenance["fallback"]
        assert sorted(info["position"] for info in seen) == [0, 1, 2, 3]
        serial = SweepRunner(workers=1).run_grid(base, small_grid())
        assert serial.provenance["effective_workers"] == 1
        assert serial.provenance["fallback"] is None
        # ... in the sidecar only: the canonical document does not change.
        assert degraded.to_json() == serial.to_json()
        assert "fallback" not in degraded.to_json()

    def test_pool_run_records_its_effective_workers(self):
        sweep = SweepRunner(workers=2).run_grid(
            default_flood_spec(duration=1.0), small_grid())
        assert sweep.provenance["effective_workers"] == 2
        assert sweep.provenance["fallback"] is None

    def test_pool_start_method_is_explicit_and_recorded(self):
        import multiprocessing

        from repro.experiments import sweep as sweep_module

        expected = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn")
        assert sweep_module.pool_start_method() == expected
        sweep = SweepRunner(workers=2).run_grid(
            default_flood_spec(duration=1.0), small_grid())
        assert sweep.provenance["start_method"] == expected
        pool = sweep_module._shared_pool(2)
        assert pool._mp_context.get_start_method() == expected
        serial = SweepRunner(workers=1).run_grid(
            default_flood_spec(duration=1.0), small_grid())
        assert serial.provenance["start_method"] is None
        assert "start_method" not in sweep.to_json()

    def test_spec_hash_is_computed_once_per_cell(self, monkeypatch, tmp_path):
        from repro.cluster import CellCache
        from repro.experiments import spec as spec_module
        from repro.experiments import sweep as sweep_module

        calls = []

        def counting(function):
            def counted(spec):
                calls.append(spec)
                return function(spec)
            return counted

        monkeypatch.setattr(spec_module, "spec_hash",
                            counting(spec_module.spec_hash))
        monkeypatch.setattr(sweep_module, "rendered_spec_hash",
                            counting(sweep_module.rendered_spec_hash))
        # Progress, provenance, cache lookup and publish all want the hash;
        # a cell hashes the spec dict its record renders.
        SweepRunner(progress=lambda info: None,
                    cache=CellCache(str(tmp_path))).run_grid(
            default_flood_spec(duration=1.0), small_grid())
        assert len(calls) == 4

    def test_cache_fronted_runs_hit_report_and_stay_byte_identical(
            self, tmp_path):
        from repro.cluster import CellCache

        base = default_flood_spec(duration=1.0)
        plain = SweepRunner().run_grid(base, small_grid())
        cache = CellCache(str(tmp_path))
        seen = []
        runner = SweepRunner(workers=2, cache=cache, progress=seen.append)
        cold = runner.run_grid(base, small_grid())
        assert cold.provenance["cache"] == {"hits": 0, "misses": 4}
        assert len(cache.keys()) == 4
        # Widen the grid: only the two new cells miss (and reach the pool).
        wider = dict(small_grid(), **{"defense.backend":
                                      ["aitf", "none", "pushback"]})
        warm = runner.run_grid(base, wider)
        assert warm.provenance["cache"] == {"hits": 4, "misses": 2}
        assert runner.cache_stats() == {"hits": 4, "misses": 6}
        assert cold.to_json() == plain.to_json()
        assert warm.to_json() == SweepRunner().run_grid(base, wider).to_json()
        # Every cell of both runs was reported exactly once.
        assert sorted(info["position"] for info in seen[:4]) == [0, 1, 2, 3]
        assert sorted((info["position"], info["cached"])
                      for info in seen[4:]) == [
            (0, True), (1, True), (2, True), (3, True), (4, False), (5, False)]
