"""The coordinator side of a distributed sweep.

A coordinator does four things, all restartable:

1. **Submit** — expand the grid (the same pure expansion the serial path
   uses), write the run manifest, and enqueue one marker per cell.  Cells
   whose canonical spec hash is already in the cache are born done: a
   re-submitted sweep only queues the cells that actually need computing.
2. **Execute** — run the one claim loop (:meth:`ClusterWorker.run
   <repro.cluster.worker.ClusterWorker.run>`) in this process until the run
   is complete: the coordinator claims cells like any worker, so ``repro
   sweep --cluster DIR`` makes progress even with zero external workers and
   merely goes faster with more.
3. **Merge** — assemble the document through the same
   :class:`repro.experiments.sweep.CellResolver` the serial runner uses,
   from the results this process computed or looked up at submit plus one
   cache read per cell some other worker computed.  The merged
   ``experiment_sweep/v1`` document is byte-identical to a serial run's,
   whatever the worker count, ordering, or crash history.
4. **Resume** — ``submit(..., resume=True)`` against a directory that
   already has a manifest validates that the sweep is the *same* sweep
   (before expanding anything), requeues orphaned leases, enqueues only
   what is missing, and proceeds.  Nothing completed before the crash is
   recomputed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.cluster.manifest import RunManifest, cell_name
from repro.cluster.worker import ClusterWorker, WorkerStats, default_worker_id
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import CellResolver, SweepResult


class ClusterError(RuntimeError):
    """A cluster-directory misuse the operator has to resolve (wrong grid
    on resume, reusing a dir without ``--resume``, merging an unfinished
    run)."""


class SweepCoordinator:
    """Submit, drive and merge a sweep over a shared cluster directory."""

    def __init__(self, cluster_dir: str, *, worker_id: Optional[str] = None,
                 lease_seconds: float = 30.0,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None
                 ) -> None:
        self.cluster_dir = cluster_dir
        #: The coordinator's own participant in the run; its queue, cache
        #: and cell pass are the coordinator's.
        self.worker = ClusterWorker(
            cluster_dir, lease_seconds=lease_seconds,
            worker_id=(worker_id or default_worker_id()) + ":coordinator")
        self.queue = self.worker.queue
        self.cache = self.worker.cache
        #: Per-cell progress callback (see :class:`CellResolver`): every
        #: cell is reported once, as it is looked up, executed here, or
        #: collected from another worker at merge.
        self.progress = progress
        self.manifest: Optional[RunManifest] = None
        #: Whether this coordinator submitted (and so saw which cells were
        #: cached beforehand); a merge-only coordinator reports all-cached.
        self._submitted = False
        self._resumed = False

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------
    def submit(self, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
               *, reseed: bool = True, resume: bool = False) -> RunManifest:
        """Expand the grid, persist the manifest, enqueue missing cells."""
        manifest = RunManifest.load(self.cluster_dir)
        if manifest is None:
            manifest = RunManifest.build(base, grid, reseed=reseed)
            manifest.save(self.cluster_dir, self.queue.tmp_dir)
        elif not resume:
            raise ClusterError(
                f"cluster directory {self.cluster_dir!r} already holds a "
                "submitted sweep; pass --resume to continue it or point "
                "at a fresh directory")
        elif not manifest.describes(base, grid, reseed=reseed):
            raise ClusterError(
                "refusing to resume: the sweep in "
                f"{self.cluster_dir!r} was submitted with a different "
                "base spec, grid or reseed policy than this invocation")
        else:
            # The durable expansion is the authority; the grid is not even
            # expanded again.
            self._resumed = True
        self.manifest = manifest
        self._submitted = True
        self.queue.requeue_stale()
        # One listing of the queue decides which markers to create; put's
        # create and reopen's rename still settle any race with another
        # process that moved a marker since.
        states = self.queue.states()
        resolver = self._resolver()
        for position in range(len(manifest)):
            name = cell_name(position)
            state = states.get(name)
            if resolver.lookup(position):
                if state is None:
                    self.queue.put(name, state="done")
            elif state == "done" or (state is None
                                     and not self.queue.put(name)):
                # Already queued.  If it sits in done its cache entry has
                # since been lost or corrupted: run the cell again.
                self.queue.reopen(name)
        return manifest

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------
    def execute(self, *, timeout: Optional[float] = None) -> SweepResult:
        """Drive the run to completion, then merge.

        The coordinator claims and executes cells alongside any external
        workers, so progress never depends on someone else showing up.
        ``timeout`` bounds, in seconds, how long it waits on other workers
        with nothing left to run itself (``None`` = until done).
        """
        resolver = self._resolver()
        wall_start = time.perf_counter()
        stats = self.worker.run(idle_timeout=timeout)
        if stats.stop_reason != "run_complete":
            pending, leased, done = self.queue.counts()
            raise ClusterError(
                f"sweep did not complete within {timeout:.0f}s "
                f"({done}/{len(resolver.cells)} cells done, {pending} pending, "
                f"{leased} leased)")
        return self.merge(coordinator_stats=stats,
                          wall_seconds=time.perf_counter() - wall_start)

    def run_grid(self, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
                 *, reseed: bool = True, resume: bool = False,
                 timeout: Optional[float] = None) -> SweepResult:
        """Submit + execute in one call (the ``repro sweep --cluster`` path)."""
        self.submit(base, grid, reseed=reseed, resume=resume)
        return self.execute(timeout=timeout)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, *, coordinator_stats: Optional[WorkerStats] = None,
              wall_seconds: float = 0.0) -> SweepResult:
        """Assemble the canonical sweep document.

        Cells this process has not resolved itself (other workers computed
        them) are read back from the cache by content hash, once; then the
        merge is the serial run's — this is where byte-identity comes
        from.  Raises if any cell is missing.
        """
        resolver = self._resolver()
        missing = [position for position in range(len(resolver.cells))
                   if not resolver.lookup(position, cached=not self._submitted)]
        if missing:
            raise ClusterError(
                f"cannot merge: {len(missing)} of {len(resolver.cells)} cells "
                f"have no cached result yet (first missing: "
                f"{cell_name(missing[0])})")
        extra = ({} if coordinator_stats is None
                 else {"coordinator": coordinator_stats.to_dict()})
        return resolver.sweep_result(
            self.manifest.base_spec, self.manifest.grid,
            mode="cluster", cluster_dir=self.cluster_dir,
            resumed=self._resumed,
            workers=sorted({record["worker"] for record in resolver.records
                            if record["worker"]}),
            wall_seconds=wall_seconds, **extra)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _resolver(self) -> CellResolver:
        """The pass over the submitted run's cells, shared with the
        coordinator's worker (reading ``run.json`` if someone else
        submitted it)."""
        if self.worker.resolver is None:
            if self.manifest is None:
                self.manifest = RunManifest.load(self.cluster_dir)
            if self.manifest is None:
                raise ClusterError(
                    f"no sweep has been submitted to {self.cluster_dir!r} "
                    "(run.json is missing)")
            self.worker.resolver = CellResolver(
                self.manifest.cells, cache=self.cache, progress=self.progress,
                worker=self.worker.worker_id)
        return self.worker.resolver
