"""A durable, multi-process work queue backed by a shared directory.

Tasks are empty *marker* files, named after a cell of the run manifest
(``run.json``, the only place a cell is described), that move between three
subdirectories as their state changes::

    tasks/pending/00003.json   ->   tasks/leased/00003.json   ->   tasks/done/00003.json

Every transition is a single ``os.rename`` on one filesystem, which POSIX
makes atomic: when several workers race to claim (or requeue) the same
task, exactly one rename succeeds and the losers get ``FileNotFoundError``
and move on.  No locks, no lockfiles, no coordinator process in the loop —
any number of workers on any number of machines can share the directory as
long as they see the same filesystem.

A claimed task carries a *lease*: a sidecar file under ``leases/`` naming
the worker and the wall-clock time the lease expires.  Live workers
refresh the lease (heartbeat) while executing; if a worker dies, its lease
stops moving, and anyone — another worker, the coordinator, a later
``--resume`` — may move the task back to pending with
:meth:`FileQueue.requeue_stale`.  Because cell execution is idempotent
(results land in a content-addressed cache), the rare double execution a
pessimistic lease timeout can cause is wasted work, never wrong output.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.logsetup import get_logger

logger = get_logger("cluster.fsqueue")

_STATES = ("pending", "leased", "done")


def write_json_atomic(path: str, data: Dict[str, Any], tmp_dir: str) -> None:
    """Write ``data`` to ``path`` via a same-filesystem temp file + rename.

    Readers never observe a half-written file: they see the old file, no
    file, or the complete new one.  ``tmp_dir`` must be on the same
    filesystem as ``path`` (the queue keeps one inside its root).
    """
    tmp_path = os.path.join(
        tmp_dir, f".{os.path.basename(path)}.{os.getpid()}.{time.monotonic_ns()}")
    with open(tmp_path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """Read a JSON object; ``None`` if the file vanished (lost a rename
    race) or is mid-write by a non-atomic writer (never the queue's own
    files).  Fail closed on corruption too: bytes that are not UTF-8 and
    valid JSON that is not an object are reported and read as absent, so
    the caller recomputes instead of trusting or crashing on them."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    except UnicodeDecodeError:
        data = None
    if not isinstance(data, dict):
        logger.warning("ignoring corrupt JSON file %s", path)
        return None
    return data


class FileQueue:
    """The file-backed task queue inside a cluster directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.tmp_dir = os.path.join(root, "tmp")
        self.lease_dir = os.path.join(root, "leases")
        self._state_dirs = {state: os.path.join(root, "tasks", state)
                           for state in _STATES}
        for path in (self.tmp_dir, self.lease_dir, *self._state_dirs.values()):
            os.makedirs(path, exist_ok=True)
        #: Pending names from the last listing, next to claim at the end.
        self._backlog: List[str] = []

    # ------------------------------------------------------------------
    # paths and listings
    # ------------------------------------------------------------------
    def _task_path(self, state: str, name: str) -> str:
        return os.path.join(self._state_dirs[state], f"{name}.json")

    def _lease_path(self, name: str) -> str:
        return os.path.join(self.lease_dir, f"{name}.json")

    def names(self, state: str) -> List[str]:
        """Task names currently in ``state``, sorted."""
        return sorted(entry[:-len(".json")]
                      for entry in os.listdir(self._state_dirs[state])
                      if entry.endswith(".json"))

    def counts(self) -> Tuple[int, int, int]:
        """(pending, leased, done) task counts."""
        return tuple(len(self.names(state)) for state in _STATES)  # type: ignore[return-value]

    def state_of(self, name: str) -> Optional[str]:
        """Which state ``name`` is in, or ``None`` if it was never enqueued."""
        for state in _STATES:
            if os.path.exists(self._task_path(state, name)):
                return state
        return None

    # ------------------------------------------------------------------
    # enqueue
    # ------------------------------------------------------------------
    def put(self, name: str, *, state: str = "pending") -> bool:
        """Enqueue the marker ``name`` unless it already exists in any state.

        ``state="done"`` records a task that needs no work (its result was
        already in the cache when the run was submitted).  Returns whether
        the marker was newly created.
        """
        if self.state_of(name) is not None:
            return False
        with open(self._task_path(state, name), "w"):
            pass
        return True

    # ------------------------------------------------------------------
    # claim / lease lifecycle
    # ------------------------------------------------------------------
    def _move(self, name: str, source: str, target: str) -> bool:
        """One state transition: a single atomic rename.

        ``False`` means ``name`` was not in ``source`` — someone else moved
        it first, the lost race every caller tolerates.  Any other
        ``OSError`` (a read-only, full or permission-denied directory)
        propagates: swallowing it would leave the run waiting forever on
        cells that can never move.
        """
        try:
            os.rename(self._task_path(source, name),
                      self._task_path(target, name))
        except FileNotFoundError:
            return False
        return True

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[str]:
        """Atomically claim one pending task; ``None`` if none were left.

        The pending->leased rename is the claim: when several workers race
        for the same file exactly one rename succeeds.  Losers just try the
        next pending task.  The lease is published *before* the rename so a
        freshly claimed task is never observed leased-but-leaseless (which
        :meth:`requeue_stale` would misread as a dead worker); a loser's
        lease file is harmless — it carries a valid expiry, is overwritten
        by the winner's heartbeats, and is swept once the task completes.

        Candidates come from a remembered listing of ``pending/`` that is
        only refreshed once it runs out, so draining a grid costs one
        directory scan per listing rather than one per claim; names other
        workers took since the listing are skipped by a cheap existence
        check before any lease is written.
        """
        while True:
            if not self._backlog:
                self._backlog = self.names("pending")[::-1]
                if not self._backlog:
                    return None
            name = self._backlog.pop()
            if not os.path.exists(self._task_path("pending", name)):
                continue  # taken since the listing
            self.heartbeat(name, worker_id, lease_seconds)
            if self._move(name, "pending", "leased"):
                return name

    def heartbeat(self, name: str, worker_id: str, lease_seconds: float) -> None:
        """Refresh the lease on a claimed task (workers call this while a
        long cell is executing, from a background thread)."""
        now = time.time()
        write_json_atomic(self._lease_path(name), {
            "worker": worker_id,
            "time": now,
            "expires": now + lease_seconds,
        }, self.tmp_dir)

    def complete(self, name: str, owner: Optional[str] = None) -> bool:
        """Move a leased task to done and drop its lease.

        Tolerates the task having been requeued and completed by someone
        else meanwhile (possible after a lease expired under a live but
        slow worker) — the cache made the execution idempotent, so the only
        thing left to do is not crash.  With ``owner`` given, the lease is
        only dropped if it still names that worker, so a late completer
        cannot delete the live lease of whoever re-claimed the task.
        """
        moved = (self._move(name, "leased", "done")
                 or self.state_of(name) == "done")
        self._drop_lease(name, owner)
        return moved

    def release(self, name: str, owner: Optional[str] = None) -> None:
        """Return a leased task to pending (graceful give-back)."""
        self._move(name, "leased", "pending")
        self._drop_lease(name, owner)

    def reopen(self, name: str) -> None:
        """Return a done task to pending: its cached result is gone or no
        longer trusted, so the cell has to run again."""
        self._move(name, "done", "pending")

    def requeue_stale(self, now: Optional[float] = None) -> List[str]:
        """Move leased tasks whose lease expired (or vanished) back to pending.

        Safe to call from any process at any time: the leased->pending
        rename is atomic, so concurrent requeuers (or a completing worker)
        cannot duplicate or lose a task.  Returns the requeued names.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        for name in self.names("leased"):
            lease = read_json(self._lease_path(name))
            if lease is not None and lease.get("expires", 0.0) > now:
                continue  # lease is live
            # Drop the (expired) lease *before* the rename: once the task is
            # back in pending another worker may claim it immediately, and a
            # drop after the rename could delete that claimant's fresh lease.
            self._drop_lease(name)
            if self._move(name, "leased", "pending"):
                requeued.append(name)
        # Sweep orphan leases left by lost claim races on tasks that have
        # since completed (they never expire on their own).
        for entry in os.listdir(self.lease_dir):
            if entry.endswith(".json") and os.path.exists(
                    self._task_path("done", entry[:-len(".json")])):
                self._drop_lease(entry[:-len(".json")])
        return requeued

    def _drop_lease(self, name: str, owner: Optional[str] = None) -> None:
        if owner is not None:
            lease = read_json(self._lease_path(name))
            if lease is not None and lease.get("worker") != owner:
                return  # someone else re-claimed the task; leave their lease
        try:
            os.remove(self._lease_path(name))
        except FileNotFoundError:
            pass
