"""The ``repro worker`` daemon loop — and the one claim loop of a cluster run.

A worker is pointed at a cluster directory and needs nothing else: it
claims a *run* of pending cell markers under one lease, looks each cell up
in the run manifest (``run.json``, loaded when the first marker is claimed
or the queue first runs dry), and resolves it through the same
:class:`repro.experiments.sweep.CellResolver` the serial path uses:
cache-first, else execute and publish to the content-addressed cache.  Each
marker moves to done as soon as its cell finishes; the run's lease is
dropped once, after its last cell.

A run is sized from the worker's own mean cell wall-clock to span about one
``poll_interval`` (the first run, with nothing measured yet, is one cell):
the queue's bookkeeping is paid per run, and a run holds cells back from
other workers for no longer than an idle worker waits between polls
anyway.  One background thread per :meth:`ClusterWorker.run` heartbeats the
current run's lease so a slow cell is never mistaken for a dead worker;
when a worker *does* die, its lease goes stale and any other participant
requeues the cells it had not finished.

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
from typing import Any, Dict, List, Optional

from repro.cluster.cache import CellCache
from repro.cluster.fsqueue import FileQueue
from repro.cluster.manifest import RunManifest
from repro.experiments.sweep import CellResolver

#: Seconds between queue polls when idle (``repro worker --poll`` overrides
#: it for a daemon; a coordinator always uses this value).  A claimed run
#: aims to take about this long.
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

    def _resolve(self, position: int, result: Dict[str, Any], text: str,
                 *record: Any) -> None:
        super()._resolve(position, None, None, *record)


class _RunLease:
    """The lease on the run a worker holds, refreshed by one background
    thread for the whole of :meth:`ClusterWorker.run`.

    The thread starts with the first run held.  A beat and a drop take the
    same lock, so no beat lands after a run's lease was dropped (it would
    come back as an orphan naming finished cells)."""

    def __init__(self, queue: FileQueue, worker_id: str,
                 lease_seconds: float) -> None:
        self.queue = queue
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self._run: List[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def hold(self, run: List[str]) -> None:
        """Keep refreshing ``run``'s lease (the claim published it)."""
        with self._lock:
            self._run = run
        if self._thread is None:
            self._thread = threading.Thread(target=self._beat, daemon=True)
            self._thread.start()

    def drop(self) -> None:
        """Stop refreshing the run's lease and delete it (if still ours)."""
        with self._lock:
            run, self._run = self._run, []
            self.queue.drop_lease(run[0], self.worker_id)

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _beat(self) -> None:
        # Refresh well inside the lease so one missed beat cannot expire it.
        while not self._stop.wait(max(0.05, self.lease_seconds / 4.0)):
            with self._lock:
                if self._run:
                    self.queue.heartbeat(self._run[0], self.worker_id,
                                         self.lease_seconds, self._run)


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
        lease = _RunLease(self.queue, self.worker_id, self.lease_seconds)
        busy_seconds = 0.0  # wall-clock of the cells resolved so far
        try:
            while True:
                # Leases cannot go stale faster than they were granted, so a
                # full leases/ scan every lease_seconds/2 recovers dead
                # workers just as fast as scanning every loop — at a
                # fraction of the I/O on a shared (often network)
                # filesystem.
                if time.monotonic() >= next_requeue_scan:
                    stats.requeued += len(self.queue.requeue_stale())
                    next_requeue_scan = time.monotonic() + max(
                        self.poll_interval, self.lease_seconds / 2.0)
                resolved = stats.executed + stats.cache_hits
                run = self.queue.claim(
                    self.worker_id, self.lease_seconds,
                    self._run_length(resolved, busy_seconds, max_cells))
                # The manifest is written once per run, before any marker,
                # and never changes: it is read when the first marker is
                # claimed or the queue first runs dry, then kept.
                resolver = self._load_resolver()
                if run and resolver is None:
                    # Markers without a readable run.json: nothing says what
                    # the cells are, so give them back and wait like an idle
                    # worker.
                    for name in run:
                        self.queue.release(name)
                    self.queue.drop_lease(run[0], self.worker_id)
                    run = []
                if run:
                    run_start = time.perf_counter()
                    self._process_run(run, stats, lease)
                    busy_seconds += time.perf_counter() - run_start
                    last_activity = time.monotonic()
                    if (max_cells is not None
                            and stats.executed + stats.cache_hits >= max_cells):
                        stats.stop_reason = "max_cells"
                        break
                    continue
                # Completion costs three directory scans, so it is only
                # checked when a claim came back empty.
                if resolver is not None and self._run_complete(len(resolver.cells)):
                    stats.stop_reason = "run_complete"
                    break
                if (idle_timeout is not None
                        and time.monotonic() - last_activity > idle_timeout):
                    stats.stop_reason = "idle_timeout"
                    break
                time.sleep(self.poll_interval)
        finally:
            lease.close()
        stats.wall_seconds = time.perf_counter() - start
        return stats

    def _run_length(self, resolved: int, busy_seconds: float,
                    max_cells: Optional[int]) -> int:
        """How many cells to claim next: about one ``poll_interval`` of this
        worker's mean cell wall-clock (one cell before any was measured),
        never more than ``max_cells`` has left."""
        length = 1
        if resolved and busy_seconds > 0:
            length = max(1, int(self.poll_interval * resolved / busy_seconds))
        if max_cells is not None:
            length = max(1, min(length, max_cells - resolved))
        return length

    def _process_run(self, run: List[str], stats: WorkerStats,
                     lease: _RunLease) -> None:
        """Resolve a claimed run cell by cell under its one lease, then drop
        the lease."""
        lease.hold(run)
        try:
            for index, name in enumerate(run):
                try:
                    self.process(name, stats)
                except Exception:
                    # Put the cell and the rest of its run back for someone
                    # else before propagating: a bad cell crashes this
                    # worker, not the whole run's bookkeeping.
                    for unstarted in run[index:]:
                        self.queue.release(unstarted)
                    raise
        finally:
            lease.drop()

    def process(self, name: str, stats: WorkerStats) -> None:
        """Resolve one claimed marker: from the cache if another worker (or
        a previous run) already computed the cell, else by executing it."""
        resolver = self.resolver
        position = int(name)
        # ``cached=False``: the submitter saw a miss, so whoever filled the
        # cache since did it as part of this run.  When the submitter was
        # this process, the cache reads the entry again only if someone
        # published to it since the submit missed it (``CellCache.get``).
        cached = resolver.lookup(position, cached=False)
        if not cached:
            resolver.execute(position)
        self.queue.complete(name)
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

    def _run_complete(self, cells: int) -> bool:
        pending, leased, done = self.queue.counts()
        return pending == 0 and leased == 0 and done >= cells
