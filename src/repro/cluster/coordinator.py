"""The coordinator side of a distributed sweep.

A coordinator does four things, all restartable:

1. **Submit** — expand the grid (the same pure expansion the serial path
   uses), write the run manifest, and enqueue one task per cell.  Cells
   whose canonical spec hash is already in the cache are born done: a
   re-submitted sweep only queues the cells that actually need computing.
2. **Execute** — wait for the queue to drain, requeuing stale leases from
   crashed workers as it goes.  By default the coordinator also *works*:
   it claims cells like any worker, so ``repro sweep --cluster DIR`` makes
   progress even with zero external workers and merely goes faster with
   more.
3. **Merge** — read every cell's result back from the content-addressed
   cache, in manifest order, through the same
   :func:`repro.experiments.sweep.merge_cell_documents` the serial runner
   uses.  The merged ``experiment_sweep/v1`` document is byte-identical to
   a serial run's, whatever the worker count, ordering, or crash history.
4. **Resume** — ``submit(..., resume=True)`` against a directory that
   already has a manifest validates that the sweep is the *same* sweep,
   requeues orphaned leases, enqueues only what is missing, and proceeds.
   Nothing completed before the crash is recomputed.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.cluster.cache import CellCache
from repro.cluster.fsqueue import FileQueue
from repro.cluster.manifest import RunManifest
from repro.cluster.worker import ClusterWorker, WorkerStats, default_worker_id
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import SweepResult, merge_cell_documents


class ClusterError(RuntimeError):
    """A cluster-directory misuse the operator has to resolve (wrong grid
    on resume, reusing a dir without ``--resume``, merging an unfinished
    run)."""


class SweepCoordinator:
    """Submit, drive and merge a sweep over a shared cluster directory."""

    def __init__(self, cluster_dir: str, *, worker_id: Optional[str] = None,
                 lease_seconds: float = 30.0, poll_interval: float = 0.2) -> None:
        self.cluster_dir = cluster_dir
        os.makedirs(cluster_dir, exist_ok=True)
        self.queue = FileQueue(cluster_dir)
        self.cache = CellCache(os.path.join(cluster_dir, "cache"))
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.worker_id = (worker_id or default_worker_id()) + ":coordinator"
        self.manifest: Optional[RunManifest] = None
        #: Spec hashes that were already cached when submit ran; None until
        #: a submit happens (merge-only coordinators report all-cached).
        self._hit_hashes: Optional[set] = None
        self._resumed = False

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------
    def submit(self, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
               *, reseed: bool = True, resume: bool = False) -> RunManifest:
        """Expand the grid, persist the manifest, enqueue missing cells."""
        manifest = RunManifest.build(base, grid, reseed=reseed)
        existing = RunManifest.load(self.cluster_dir)
        if existing is not None:
            if not resume:
                raise ClusterError(
                    f"cluster directory {self.cluster_dir!r} already holds a "
                    "submitted sweep; pass --resume to continue it or point "
                    "at a fresh directory")
            if not existing.matches(manifest):
                raise ClusterError(
                    "refusing to resume: the sweep in "
                    f"{self.cluster_dir!r} was submitted with a different "
                    "base spec, grid or reseed policy than this invocation")
            manifest = existing  # the durable expansion is the authority
            self._resumed = True
        else:
            manifest.save(self.cluster_dir, self.queue.tmp_dir)
        self.queue.requeue_stale()
        self._hit_hashes = set()
        for task in manifest.tasks():
            if task.spec_hash in self.cache:
                self._hit_hashes.add(task.spec_hash)
                self.queue.put(task, state="done")
            elif not self.queue.put(task):
                # Already queued.  If it sits in done its cache entry has
                # since been lost or corrupted: run the cell again.
                self.queue.reopen(task.name)
        self.manifest = manifest
        return manifest

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------
    def execute(self, *, participate: bool = True,
                timeout: Optional[float] = None) -> SweepResult:
        """Drive the run to completion, then merge.

        With ``participate`` (the default) the coordinator claims and
        executes cells alongside any external workers, so progress never
        depends on someone else showing up.  ``timeout`` bounds the wait in
        seconds (``None`` = until done).
        """
        manifest = self._require_manifest()
        worker = ClusterWorker(self.cluster_dir, worker_id=self.worker_id,
                               lease_seconds=self.lease_seconds,
                               poll_interval=self.poll_interval)
        stats = WorkerStats(worker_id=self.worker_id)
        start = time.monotonic()
        wall_start = time.perf_counter()
        next_requeue_scan = 0.0  # first pass always scans
        while not self._complete(manifest):
            # Same throttle as ClusterWorker.run: stale leases cannot appear
            # faster than lease_seconds, so scanning each loop is waste.
            if time.monotonic() >= next_requeue_scan:
                self.queue.requeue_stale()
                next_requeue_scan = time.monotonic() + max(
                    self.poll_interval, self.lease_seconds / 2.0)
            task = (self.queue.claim(self.worker_id, self.lease_seconds)
                    if participate else None)
            if task is not None:
                worker.process(task, stats)
                continue
            if timeout is not None and time.monotonic() - start > timeout:
                pending, leased, done = self.queue.counts()
                raise ClusterError(
                    f"sweep did not complete within {timeout:.0f}s "
                    f"({done}/{len(manifest)} cells done, {pending} pending, "
                    f"{leased} leased)")
            time.sleep(self.poll_interval)
        return self.merge(coordinator_stats=stats,
                          wall_seconds=time.perf_counter() - wall_start)

    def run_grid(self, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
                 *, reseed: bool = True, resume: bool = False,
                 participate: bool = True,
                 timeout: Optional[float] = None) -> SweepResult:
        """Submit + execute in one call (the ``repro sweep --cluster`` path)."""
        self.submit(base, grid, reseed=reseed, resume=resume)
        return self.execute(participate=participate, timeout=timeout)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, *, coordinator_stats: Optional[WorkerStats] = None,
              wall_seconds: float = 0.0) -> SweepResult:
        """Assemble the canonical sweep document from the cache.

        Results are read back by content hash in manifest (grid) order and
        merged through the same pure function as a serial run — this is
        where byte-identity comes from.  Raises if any cell is missing.
        """
        manifest = self._require_manifest()
        results: List[Dict[str, Any]] = []
        cell_records: List[Dict[str, Any]] = []
        workers_seen = set()
        missing: List[str] = []
        hits = 0
        for cell in manifest.cells:
            entry = self.cache.get(cell["spec_hash"])
            if entry is None or "result" not in entry:
                missing.append(cell["name"])
                continue
            results.append(entry["result"])
            if entry.get("worker"):
                workers_seen.add(entry["worker"])
            cached = (cell["spec_hash"] in self._hit_hashes
                      if self._hit_hashes is not None else True)
            hits += cached
            cell_records.append({
                "index": cell["index"],
                "spec_hash": cell["spec_hash"],
                "seed": cell["seed"],
                "wall_seconds": entry.get("wall_seconds", 0.0),
                "worker": entry.get("worker", ""),
                "cached": cached,
            })
        if missing:
            raise ClusterError(
                f"cannot merge: {len(missing)} of {len(manifest)} cells have "
                f"no cached result yet (first missing: {missing[0]})")
        provenance: Dict[str, Any] = {
            "mode": "cluster",
            "cluster_dir": self.cluster_dir,
            "resumed": self._resumed,
            "root_seed": manifest.base_spec.get("seed"),
            "workers": sorted(workers_seen),
            "cache": {"hits": hits, "misses": len(manifest) - hits},
            "wall_seconds": wall_seconds,
            "cells": cell_records,
        }
        if coordinator_stats is not None:
            provenance["coordinator"] = coordinator_stats.to_dict()
        return SweepResult(
            base_spec=manifest.base_spec,
            grid=manifest.grid,
            cells=merge_cell_documents(manifest.sweep_cells(), results),
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _require_manifest(self) -> RunManifest:
        if self.manifest is None:
            self.manifest = RunManifest.load(self.cluster_dir)
        if self.manifest is None:
            raise ClusterError(
                f"no sweep has been submitted to {self.cluster_dir!r} "
                "(run.json is missing)")
        return self.manifest

    def _complete(self, manifest: RunManifest) -> bool:
        pending, leased, done = self.queue.counts()
        return pending == 0 and leased == 0 and done >= len(manifest)
