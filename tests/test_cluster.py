"""Tests for the distributed sweep layer: queue, cache, worker, coordinator.

The headline guarantees under test:

- claiming a task is atomic (one winner, however many claimants),
- a dead worker's lease goes stale and its cell is requeued,
- the coordinator's merged document is byte-identical to a serial
  ``SweepRunner`` run, whatever the execution history (fresh, crashed and
  resumed, or fully cached),
- a second identical submission is 100% cache hits and touches no simulator.
"""

import json
import logging
import os
import threading

import pytest

from repro.cluster import (
    CellCache,
    ClusterError,
    ClusterWorker,
    FileQueue,
    RunManifest,
    SweepCoordinator,
)
from repro.cluster.fsqueue import read_json
from repro.cluster.manifest import cell_name
from repro.experiments import (
    SweepRunner,
    default_flood_spec,
    expand_grid,
    spec_hash,
)


def tiny_grid():
    return {"defense.backend": ["aitf", "none"]}


class TestFileQueue:
    """Tasks are empty markers named after a manifest position; what the
    cell *is* lives in ``run.json`` only (see ``TestRunManifest``)."""

    def test_put_claim_complete_lifecycle(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        assert queue.put(cell_name(0))
        assert queue.counts() == (1, 0, 0)
        name = queue.claim("w1", lease_seconds=30.0)
        assert name == "00000"
        assert queue.counts() == (0, 1, 0)
        assert queue.complete(name)
        assert queue.counts() == (0, 0, 1)

    def test_no_queue_file_contains_a_spec(self, tmp_path):
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(default_flood_spec(duration=1.0), tiny_grid())
        coordinator.queue.claim("w1", lease_seconds=30.0)
        markers = [os.path.join(dirpath, filename)
                   for dirpath, _, filenames in os.walk(tmp_path / "tasks")
                   for filename in filenames]
        assert len(markers) == 2
        assert all(os.path.getsize(path) == 0 for path in markers)

    def test_put_is_idempotent_across_states(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        name = cell_name(0)
        assert queue.put(name)
        assert not queue.put(name)  # already pending
        queue.claim("w1", 30.0)
        assert not queue.put(name)  # leased
        queue.complete(name)
        assert not queue.put(name)  # done

    def test_exactly_one_claimant_wins_each_task(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        for index in range(8):
            queue.put(cell_name(index))
        claimed = []
        lock = threading.Lock()

        def grab(worker_id):
            local = FileQueue(str(tmp_path))
            while True:
                name = local.claim(worker_id, 30.0)
                if name is None:
                    return
                with lock:
                    claimed.append(name)

        threads = [threading.Thread(target=grab, args=(f"w{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == [cell_name(i) for i in range(8)]
        assert len(set(claimed)) == 8  # no double-claims
        assert queue.counts() == (0, 8, 0)

    def test_stale_lease_is_requeued_live_lease_is_not(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        queue.put(cell_name(1))
        first = queue.claim("dead-worker", lease_seconds=0.0)   # expires now
        second = queue.claim("live-worker", lease_seconds=60.0)
        requeued = queue.requeue_stale()
        assert requeued == [first]
        assert queue.state_of(first) == "pending"
        assert queue.state_of(second) == "leased"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        name = queue.claim("w1", lease_seconds=0.0)
        queue.heartbeat(name, "w1", lease_seconds=60.0)
        assert queue.requeue_stale() == []

    def test_complete_tolerates_a_requeued_task(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        name = queue.claim("w1", lease_seconds=0.0)
        queue.requeue_stale()  # yanked away from w1 mid-execution
        assert not queue.complete(name)
        assert queue.state_of(name) == "pending"

    def test_release_returns_a_task_to_pending(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        name = queue.claim("w1", 30.0)
        queue.release(name)
        assert queue.counts() == (1, 0, 0)

    def test_claim_walks_a_remembered_listing(self, tmp_path, monkeypatch):
        # Draining n tasks lists pending/ once up front and once more to
        # find it empty -- not once per claim.
        queue = FileQueue(str(tmp_path))
        for index in range(6):
            queue.put(cell_name(index))
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: (
            listings.append(path), real_listdir(path))[1])
        claimed = []
        while (name := queue.claim("w1", 30.0)) is not None:
            claimed.append(name)
        assert claimed == [cell_name(i) for i in range(6)]
        assert len(listings) == 2

    def test_remembered_names_taken_by_others_are_skipped(self, tmp_path):
        # Two claimants list the same pending set; whatever one takes, the
        # other skips without publishing a lease for it, and a task that
        # shows up after the listing is found by the next one.
        first, second = FileQueue(str(tmp_path)), FileQueue(str(tmp_path))
        for index in range(3):
            first.put(cell_name(index))
        assert first.claim("w1", 30.0) == "00000"
        assert second.claim("w2", 30.0) == "00001"   # 00000 is gone: skipped
        assert first.claim("w1", 30.0) == "00002"    # 00001 is gone: skipped
        assert read_json(first._lease_path("00001"))["worker"] == "w2"
        first.put(cell_name(3))
        assert second.claim("w2", 30.0) == "00003"
        assert first.claim("w1", 30.0) is None

    @pytest.mark.parametrize("operation", [
        lambda queue: queue.claim("w1", 30.0),
        lambda queue: queue.complete("00000", "w0"),
        lambda queue: queue.release("00000", "w0"),
        lambda queue: queue.reopen("00001"),
        lambda queue: queue.requeue_stale(),
    ], ids=["claim", "complete", "release", "reopen", "requeue_stale"])
    def test_io_errors_propagate_instead_of_hanging_the_sweep(
            self, tmp_path, monkeypatch, operation):
        # A read-only, full or permission-denied queue directory used to
        # make claim() return None forever and complete() fail silently
        # (so execute(timeout=None) slept with cells pending).  Only the
        # lost rename race -- FileNotFoundError -- is tolerated.  (The tests
        # run as root, so chmod proves nothing: os.rename itself fails.)
        queue = FileQueue(str(tmp_path))
        for index in range(3):
            queue.put(cell_name(index))
        assert queue.claim("w0", lease_seconds=0.0) == "00000"  # leased, stale
        assert queue.claim("w0", 30.0) == "00001"
        queue.complete("00001", "w0")                          # done

        def denied(source, target):
            raise PermissionError(13, "Permission denied", source)

        monkeypatch.setattr(os, "rename", denied)
        with pytest.raises(PermissionError):
            operation(queue)

    def test_owner_scoped_lease_drop_spares_a_reclaimants_lease(self, tmp_path):
        # A worker whose lease expired mid-cell finishes late, after someone
        # else re-claimed the task: its owner-scoped drop must leave the
        # re-claimant's live lease alone (else the task looks abandoned
        # again and gets executed a third time).
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        name = queue.claim("fast-worker", lease_seconds=60.0)
        queue._drop_lease(name, "slow-worker")   # the late straggler
        assert os.path.exists(queue._lease_path(name))
        queue._drop_lease(name, "fast-worker")   # the actual owner
        assert not os.path.exists(queue._lease_path(name))

    def test_done_tasks_orphan_leases_are_swept(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        queue.put(cell_name(0))
        name = queue.claim("w1", 60.0)
        queue.complete(name, "w1")
        # A straggler's heartbeat lands after completion (lost claim race).
        queue.heartbeat(name, "w2", 60.0)
        queue.requeue_stale()
        assert not os.path.exists(queue._lease_path(name))
        assert queue.state_of(name) == "done"


class TestCellCache:
    def test_roundtrip_and_membership(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = spec_hash(default_flood_spec(duration=1.0))
        assert cache.get(key) is None
        cache.put(key, {"metric": 1.5}, worker="w1", wall_seconds=0.2)
        entry = cache.get(key)
        assert entry["result"] == {"metric": 1.5}
        assert entry["worker"] == "w1"
        assert entry["spec_hash"] == key
        assert cache.keys() == [key]

    def test_put_is_idempotent_last_writer_wins(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.put("ab" * 32, {"v": 1})
        cache.put("ab" * 32, {"v": 1}, worker="other")
        assert cache.get("ab" * 32)["result"] == {"v": 1}
        assert len(cache.keys()) == 1

    def test_entries_fan_out_by_hash_prefix(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = "cd" + "0" * 62
        cache.put(key, {})
        assert os.path.exists(tmp_path / "cd" / f"{key}.json")

    def test_entries_from_other_code_versions_are_misses(self, tmp_path):
        # A cached result computed by a different build of the simulator
        # must not replay: it could differ from what the current code (and
        # hence a fresh serial run) would produce.
        cache = CellCache(str(tmp_path))
        key = "ab" * 32
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        entry = json.loads(open(path).read())
        assert entry["code"]  # stamped with the running fingerprint
        entry["code"] = "0" * 64  # ...now pretend an older build wrote it
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        cache.put(key, {"v": 2})  # recomputation overwrites the stale entry
        assert cache.get(key)["result"] == {"v": 2}

    def test_code_fingerprint_is_stable_within_a_build(self):
        from repro.cluster.cache import code_fingerprint

        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64


class TestRunManifest:
    def test_build_save_load_roundtrip(self, tmp_path):
        queue = FileQueue(str(tmp_path))
        manifest = RunManifest.build(default_flood_spec(duration=1.0), tiny_grid())
        manifest.save(str(tmp_path), queue.tmp_dir)
        loaded = RunManifest.load(str(tmp_path))
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.describes(default_flood_spec(duration=1.0), tiny_grid())
        assert len(loaded) == 2

    def test_load_returns_none_before_submit(self, tmp_path):
        assert RunManifest.load(str(tmp_path)) is None

    def test_identity_distinguishes_different_sweeps(self):
        base = default_flood_spec(duration=1.0)
        a = RunManifest.build(base, tiny_grid())
        assert a.describes(base, tiny_grid())
        assert not a.describes(base, {"defense.backend": ["aitf", "pushback"]})
        assert not a.describes(base, tiny_grid(), reseed=False)
        assert not a.describes(default_flood_spec(duration=2.0), tiny_grid())

    def test_tasks_carry_cell_content_hashes(self, tmp_path):
        # A task is a marker; the manifest cell at the marker's position is
        # what carries the content hash (and everything else about the cell).
        coordinator = SweepCoordinator(str(tmp_path))
        manifest = coordinator.submit(default_flood_spec(duration=1.0),
                                      tiny_grid())
        assert coordinator.queue.names("pending") == ["00000", "00001"]
        cells = expand_grid(default_flood_spec(duration=1.0), tiny_grid())
        for name, expanded in zip(coordinator.queue.names("pending"), cells):
            cell = manifest.cells[int(name)]
            assert cell == expanded.to_dict()
            assert cell["spec_hash"] == spec_hash(cell["spec"]) \
                == spec_hash(expanded.spec)
            assert cell["seed"] == expanded.spec.seed


class TestWorkerAndCoordinator:
    def test_worker_drains_a_submitted_run(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(base, tiny_grid())
        worker = ClusterWorker(str(tmp_path), worker_id="w1",
                               poll_interval=0.01)
        stats = worker.run(idle_timeout=10.0)
        assert stats.stop_reason == "run_complete"
        assert stats.executed == 2
        assert coordinator.queue.counts() == (0, 0, 2)

    def test_cluster_output_is_byte_identical_to_serial(self, tmp_path):
        base = default_flood_spec(duration=1.5)
        grid = {"defense.backend": ["aitf", "none"],
                "workloads.1.params.rate_pps": [1200.0, 2400.0]}
        serial = SweepRunner(workers=1).run_grid(base, grid)
        clustered = SweepCoordinator(str(tmp_path)).run_grid(base, grid)
        assert clustered.to_json() == serial.to_json()

    def test_second_submission_is_all_cache_hits(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        first = SweepCoordinator(str(tmp_path)).run_grid(base, tiny_grid())
        assert first.provenance["cache"] == {"hits": 0, "misses": 2}
        second = SweepCoordinator(str(tmp_path)).run_grid(base, tiny_grid(),
                                                          resume=True)
        assert second.provenance["cache"] == {"hits": 2, "misses": 0}
        assert second.to_json() == first.to_json()

    def test_resume_after_partial_run_matches_serial(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        grid = {"defense.backend": ["aitf", "pushback", "none"]}
        serial = SweepRunner(workers=1).run_grid(base, grid)
        # First coordinator crashes after one cell: simulate by a worker
        # that only processes one task, with a lease left dangling.
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(base, grid)
        worker = ClusterWorker(str(tmp_path), worker_id="w1",
                               poll_interval=0.01)
        worker.run(max_cells=1, idle_timeout=5.0)
        # A second cell is claimed and abandoned (the "killed worker").
        abandoned = coordinator.queue.claim("dead", lease_seconds=0.0)
        assert abandoned is not None
        # Resume: requeues the stale lease, computes only what is missing.
        resumed = SweepCoordinator(str(tmp_path)).run_grid(base, grid,
                                                           resume=True)
        assert resumed.to_json() == serial.to_json()
        assert resumed.provenance["cache"]["hits"] == 1
        assert resumed.provenance["resumed"] is True

    def test_corrupt_cache_entries_are_misses_and_recomputed(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        grid = {"defense.backend": ["aitf", "pushback", "none"]}
        serial = SweepRunner(workers=1).run_grid(base, grid)
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(base, grid)
        ClusterWorker(str(tmp_path), worker_id="w1",
                      poll_interval=0.01).run(max_cells=2, idle_timeout=5.0)
        # Mid-sweep, two finished entries rot on disk: one into bytes that
        # are not UTF-8, one into valid JSON that is not an object.
        cache = coordinator.cache
        first, second = cache.keys()
        for key, junk in ((first, b"\xff\xfe\x00garbage"), (second, b"[]")):
            with open(cache.path_for(key), "wb") as handle:
                handle.write(junk)
        # Count on a private handler on the module's own logger.  caplog's
        # handler also sits on the root logger, so sharing it counts a record
        # twice whenever "repro" still propagates (run alone) and once when
        # an earlier CLI test switched propagation off (full suite).
        warnings = []
        handler = logging.Handler()
        handler.emit = lambda record: warnings.append(record.getMessage())
        queue_log = logging.getLogger("repro.cluster.fsqueue")
        queue_log.addHandler(handler)
        try:
            assert cache.get(first) is None and cache.get(second) is None
        finally:
            queue_log.removeHandler(handler)
        assert sum("ignoring corrupt JSON file" in w for w in warnings) == 2
        resumed = SweepCoordinator(str(tmp_path)).run_grid(base, grid,
                                                           resume=True)
        assert resumed.to_json() == serial.to_json()
        assert resumed.provenance["cache"] == {"hits": 0, "misses": 3}

    def test_resume_with_a_different_grid_is_rejected(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(base, tiny_grid())
        with pytest.raises(ClusterError, match="different"):
            SweepCoordinator(str(tmp_path)).submit(
                base, {"defense.backend": ["aitf", "pushback"]}, resume=True)

    def test_reusing_a_dir_without_resume_is_rejected(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        SweepCoordinator(str(tmp_path)).submit(base, tiny_grid())
        with pytest.raises(ClusterError, match="--resume"):
            SweepCoordinator(str(tmp_path)).submit(base, tiny_grid())

    def test_merge_before_completion_is_rejected(self, tmp_path):
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(default_flood_spec(duration=1.0), tiny_grid())
        with pytest.raises(ClusterError, match="no cached result"):
            coordinator.merge()

    def test_merge_without_a_manifest_is_rejected(self, tmp_path):
        with pytest.raises(ClusterError, match="run.json"):
            SweepCoordinator(str(tmp_path)).merge()

    def test_editing_one_axis_only_recomputes_affected_cells(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        SweepCoordinator(str(tmp_path / "a")).run_grid(base, tiny_grid())
        # Same cache, wider grid: the two original cells must be hits.
        import shutil
        shutil.copytree(tmp_path / "a" / "cache", tmp_path / "b" / "cache")
        wider = SweepCoordinator(str(tmp_path / "b")).run_grid(
            base, {"defense.backend": ["aitf", "none", "pushback"]})
        assert wider.provenance["cache"] == {"hits": 2, "misses": 1}

    def test_provenance_records_workers_and_per_cell_walls(self, tmp_path):
        sweep = SweepCoordinator(str(tmp_path), worker_id="host:1").run_grid(
            default_flood_spec(duration=1.0), tiny_grid())
        provenance = sweep.provenance_dict()
        assert provenance["schema"] == "sweep_provenance/v1"
        assert provenance["mode"] == "cluster"
        assert provenance["root_seed"] == 0
        assert provenance["workers"] == ["host:1:coordinator"]
        assert len(provenance["cells"]) == 2
        for record in provenance["cells"]:
            assert record["wall_seconds"] > 0
            assert record["cached"] is False
        json.dumps(provenance)  # JSON-serializable throughout

    def test_worker_claims_a_marker_before_it_has_loaded_run_json(self, tmp_path):
        # The daemon starts on an empty directory (no run.json to load, so
        # it idles), the sweep is submitted under it, and the first thing
        # the worker sees of the run is a claimed marker: it has to fetch
        # the manifest then, because the marker says nothing about the cell.
        worker = ClusterWorker(str(tmp_path), worker_id="w1",
                               poll_interval=0.01)
        finished = []
        thread = threading.Thread(
            target=lambda: finished.append(worker.run(idle_timeout=30.0)))
        thread.start()
        base = default_flood_spec(duration=1.0)
        coordinator = SweepCoordinator(str(tmp_path))
        assert worker.resolver is None
        coordinator.submit(base, tiny_grid())
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        (stats,) = finished
        assert stats.stop_reason == "run_complete"
        assert stats.executed == 2
        assert [cell["name"] for cell in stats.cells] == ["00000", "00001"]
        # A daemon merges nothing, so it keeps no result in memory ...
        assert worker.resolver.results == [None, None]
        # ... the coordinator collects them from the cache.
        merged = coordinator.merge()
        assert merged.to_json() == \
            SweepRunner(workers=1).run_grid(base, tiny_grid()).to_json()
        assert {record["worker"] for record in merged.provenance["cells"]} \
            == {"w1"}

    def test_marker_without_a_readable_manifest_is_given_back(self, tmp_path):
        # run.json lost or corrupt (read_json fails closed): the worker
        # cannot know what the cell is, so it must not keep (or crash on)
        # the marker.
        (tmp_path / "run.json").write_bytes(b"\xff\xfenot json")
        worker = ClusterWorker(str(tmp_path), worker_id="w1",
                               poll_interval=0.01)
        worker.queue.put(cell_name(0))
        stats = worker.run(idle_timeout=0.1)
        assert stats.stop_reason == "idle_timeout"
        assert stats.executed == 0
        assert worker.queue.counts() == (1, 0, 0)

    def test_execute_times_out_waiting_on_another_workers_lease(self, tmp_path):
        coordinator = SweepCoordinator(str(tmp_path))
        coordinator.submit(default_flood_spec(duration=1.0), tiny_grid())
        # Someone else holds a live lease on one cell and never finishes.
        assert coordinator.queue.claim("elsewhere", lease_seconds=60.0)
        with pytest.raises(ClusterError, match="1/2 cells done, 0 pending, "
                                               "1 leased"):
            coordinator.execute(timeout=0.3)


class TestProgressEverywhere:
    """The cluster path reports cells through the same callback, from the
    same code, as ``SweepRunner`` -- once per cell, whoever resolved it."""

    GRID = {"defense.backend": ["aitf", "pushback", "none"]}

    @staticmethod
    def flags(seen):
        return sorted((info["position"], info["cached"]) for info in seen)

    def test_fresh_and_resumed_runs_report_every_cell_once(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        silent = SweepCoordinator(str(tmp_path / "silent")).run_grid(
            base, self.GRID)
        seen = []
        fresh = SweepCoordinator(str(tmp_path / "q"),
                                 progress=seen.append).run_grid(base, self.GRID)
        assert self.flags(seen) == [(0, False), (1, False), (2, False)]
        assert all(info["total"] == 3 and info["wall_seconds"] > 0
                   and len(info["spec_hash"]) == 64 for info in seen)
        # Progress never alters the document bytes.
        assert fresh.to_json() == silent.to_json()
        seen.clear()
        resumed = SweepCoordinator(str(tmp_path / "q"),
                                   progress=seen.append).run_grid(
            base, self.GRID, resume=True)
        assert self.flags(seen) == [(0, True), (1, True), (2, True)]
        assert resumed.to_json() == silent.to_json()

    def test_partial_resume_flags_what_was_cached_and_what_ran(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        SweepCoordinator(str(tmp_path)).submit(base, self.GRID)
        ClusterWorker(str(tmp_path), worker_id="w1",
                      poll_interval=0.01).run(max_cells=1, idle_timeout=5.0)
        seen = []
        resumed = SweepCoordinator(str(tmp_path), progress=seen.append)
        resumed.submit(base, self.GRID, resume=True)
        assert self.flags(seen) == [(0, True)]      # reported as it is found
        sweep = resumed.execute()
        assert self.flags(seen) == [(0, True), (1, False), (2, False)]
        assert [record["cached"] for record in sweep.provenance["cells"]] \
            == [True, False, False]

    def test_cells_computed_by_other_workers_are_reported_at_merge(self, tmp_path):
        base = default_flood_spec(duration=1.0)
        seen = []
        coordinator = SweepCoordinator(str(tmp_path), progress=seen.append)
        coordinator.submit(base, self.GRID)
        ClusterWorker(str(tmp_path), worker_id="w1",
                      poll_interval=0.01).run(idle_timeout=5.0)
        assert seen == []
        coordinator.execute()
        assert self.flags(seen) == [(0, False), (1, False), (2, False)]
        assert {info["worker"] for info in seen} == {"w1"}

    def test_cli_cluster_sweep_logs_progress_to_stderr(self, tmp_path, capsys):
        from repro.cli import main

        args = ["sweep", "--param", "duration=1,2", "--attack-pps", "200",
                "--legit-pps", "100", "--cluster", str(tmp_path / "q")]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "cell 1/2" in captured.err and "cell 2/2" in captured.err
        assert "(cached)" not in captured.err
        assert "cell 1/2" not in captured.out  # diagnostics stay off stdout
        assert main([*args, "--resume"]) == 0
        assert capsys.readouterr().err.count("(cached)") == 2

