"""The ``repro worker`` daemon loop — and the one claim loop of a cluster run.

A worker is pointed at a cluster directory and needs nothing else: it
claims pending cell markers one atomic rename at a time, looks the cell up
in the run manifest (``run.json``, loaded when the first marker is claimed
or the queue first runs dry), and resolves it through the same
:class:`repro.experiments.sweep.CellResolver` the serial path uses:
cache-first, else execute and publish to the content-addressed cache.  Then
it marks the task done.  While a cell is executing, a background thread
heartbeats the task's lease so a slow cell is never mistaken for a dead
worker; when a worker *does* die, its lease goes stale and any other
participant requeues the cell.

Workers exit on their own when the run is complete (every manifest cell is
done), after ``max_cells``, or after ``idle_timeout`` seconds with nothing
to do — so a fleet of ``repro worker &`` processes drains a queue and goes
away without supervision.  :meth:`SweepCoordinator.execute
<repro.cluster.coordinator.SweepCoordinator.execute>` runs this same loop
in the coordinating process.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.cluster.cache import CellCache
from repro.cluster.fsqueue import FileQueue
from repro.cluster.manifest import RunManifest
from repro.experiments.sweep import CellResolver

#: Seconds between queue polls when idle (``repro worker --poll`` overrides
#: it for a daemon; a coordinator always uses this value).
POLL_INTERVAL = 0.2


def default_worker_id() -> str:
    """``host:pid`` — unique enough to audit who computed which cell."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker did, for its exit report and the provenance trail."""

    worker_id: str
    executed: int = 0
    cache_hits: int = 0
    requeued: int = 0
    wall_seconds: float = 0.0
    stop_reason: str = ""
    cells: list = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class _DaemonResolver(CellResolver):
    """A daemon's pass over the run.  It merges nothing, so a result is
    dropped once it is in the cache instead of piling up for the life of
    the process."""

    def _resolve(self, position: int, result: Dict[str, Any],
                 *record: Any) -> None:
        super()._resolve(position, None, *record)


class ClusterWorker:
    """Claim-and-execute loop over a shared cluster directory."""

    def __init__(self, cluster_dir: str, *, worker_id: Optional[str] = None,
                 lease_seconds: float = 30.0,
                 poll_interval: float = POLL_INTERVAL) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.cluster_dir = cluster_dir
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.queue = FileQueue(cluster_dir)
        self.cache = CellCache(os.path.join(cluster_dir, "cache"))
        #: The pass over the manifest's cells; ``None`` until ``run.json``
        #: has been read (or a coordinator hands over its own).
        self.resolver: Optional[CellResolver] = None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, *, max_cells: Optional[int] = None,
            idle_timeout: Optional[float] = 120.0) -> WorkerStats:
        """Work until the run completes, ``max_cells`` is reached, or the
        queue stays idle for ``idle_timeout`` seconds (``None`` = forever)."""
        stats = WorkerStats(worker_id=self.worker_id)
        start = time.perf_counter()
        last_activity = time.monotonic()
        next_requeue_scan = 0.0  # first pass always scans
        while True:
            # Leases cannot go stale faster than they were granted, so a
            # full leases/ scan every lease_seconds/2 recovers dead workers
            # just as fast as scanning every loop — at a fraction of the
            # I/O on a shared (often network) filesystem.
            if time.monotonic() >= next_requeue_scan:
                stats.requeued += len(self.queue.requeue_stale())
                next_requeue_scan = time.monotonic() + max(
                    self.poll_interval, self.lease_seconds / 2.0)
            name = self.queue.claim(self.worker_id, self.lease_seconds)
            # The manifest is written once per run, before any marker, and
            # never changes: it is read when the first marker is claimed or
            # the queue first runs dry, then kept.
            resolver = self._load_resolver()
            if name is not None and resolver is None:
                # A marker without a readable run.json: nothing says what
                # the cell is, so give it back and wait like an idle worker.
                self.queue.release(name, self.worker_id)
                name = None
            if name is not None:
                self.process(name, stats)
                last_activity = time.monotonic()
                if max_cells is not None and stats.executed + stats.cache_hits >= max_cells:
                    stats.stop_reason = "max_cells"
                    break
                continue
            # Completion costs three directory scans, so it is only checked
            # when a claim came back empty.
            if resolver is not None and self._run_complete(len(resolver.cells)):
                stats.stop_reason = "run_complete"
                break
            if (idle_timeout is not None
                    and time.monotonic() - last_activity > idle_timeout):
                stats.stop_reason = "idle_timeout"
                break
            time.sleep(self.poll_interval)
        stats.wall_seconds = time.perf_counter() - start
        return stats

    def process(self, name: str, stats: WorkerStats) -> None:
        """Resolve one claimed marker: from the cache if another worker (or
        a previous run) already computed the cell, else by executing it."""
        resolver = self.resolver
        position = int(name)
        # ``cached=False``: the submitter saw a miss, so whoever filled the
        # cache since did it as part of this run.
        cached = resolver.lookup(position, cached=False)
        if not cached:
            stop_beat = threading.Event()
            beater = threading.Thread(target=self._heartbeat_loop,
                                      args=(name, stop_beat), daemon=True)
            beater.start()
            try:
                try:
                    resolver.execute(position)
                finally:
                    stop_beat.set()
                    beater.join()
            except Exception:
                # Put the cell back for someone else before propagating: a bad
                # cell crashes this worker, not the whole run's bookkeeping.
                self.queue.release(name, self.worker_id)
                raise
        self.queue.complete(name, self.worker_id)
        stats.cells.append({"name": name, **resolver.records[position]})
        if cached:
            stats.cache_hits += 1
        else:
            stats.executed += 1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _load_resolver(self) -> Optional[CellResolver]:
        if self.resolver is None:
            manifest = RunManifest.load(self.cluster_dir)
            if manifest is not None:
                self.resolver = _DaemonResolver(
                    manifest.cells, cache=self.cache, worker=self.worker_id)
        return self.resolver

    def _heartbeat_loop(self, name: str, stop: threading.Event) -> None:
        # Refresh well inside the lease so one missed beat cannot expire it.
        while not stop.wait(max(0.05, self.lease_seconds / 4.0)):
            self.queue.heartbeat(name, self.worker_id, self.lease_seconds)

    def _run_complete(self, cells: int) -> bool:
        pending, leased, done = self.queue.counts()
        return pending == 0 and leased == 0 and done >= cells
