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

A worker claims a *run* of tasks at once (:meth:`FileQueue.claim`), each
marker by its own rename, under one *lease*: a file under ``leases/`` named
after the run's first marker, naming the worker, the wall-clock time the
lease expires, and every marker it covers (``names``; a lease without
``names`` covers only its own marker).  A claim creates its lease with a
hard link, which fails if the file exists, so racing claimants never
overwrite each other's leases.  A live worker moves each marker to
``done`` as its cell finishes, refreshes the lease (heartbeat) while the run
executes, and drops it once, after the run's last cell.  If a worker dies,
its lease stops moving, and anyone — another worker, the coordinator, a
later ``--resume`` — may move every marker it covered that is still leased
back to pending with :meth:`FileQueue.requeue_stale`.  Because cell
execution is idempotent (results land in a content-addressed cache), the
rare double execution a pessimistic lease timeout can cause is wasted
work, never wrong output.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.logsetup import get_logger

logger = get_logger("cluster.fsqueue")

_STATES = ("pending", "leased", "done")


def write_bytes_atomic(path: str, data: bytes, tmp_dir: str, *,
                       exclusive: bool = False) -> bool:
    """Write ``data`` to ``path`` via a same-filesystem temp file + rename.

    Readers never observe a half-written file: they see the old file, no
    file, or the complete new one.  ``tmp_dir`` must be on the same
    filesystem as ``path`` (the queue keeps one inside its root).  A write
    or rename that fails removes its temp file.

    With ``exclusive`` the temp file is hard-linked to ``path`` instead of
    renamed over it, which POSIX makes atomic and refuses if ``path``
    exists: the write never replaces another writer's file, and returns
    ``False`` when one was there first.  Otherwise it always returns
    ``True``.
    """
    tmp_path = os.path.join(
        tmp_dir, f".{os.path.basename(path)}.{os.getpid()}."
                 f"{threading.get_ident()}.{time.monotonic_ns()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
        if not exclusive:
            os.replace(tmp_path, path)
            return True
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            return False
        finally:
            os.remove(tmp_path)
        return True
    except BaseException:
        try:
            os.remove(tmp_path)
        except FileNotFoundError:
            pass
        raise


def write_json_atomic(path: str, data: Dict[str, Any], tmp_dir: str, *,
                      exclusive: bool = False) -> bool:
    """Write the JSON object ``data`` (one line: sorted keys, compact
    separators) through :func:`write_bytes_atomic`.  It is encoded in one
    call to the C encoder before the temp file is opened, so a value JSON
    cannot encode raises with nothing on disk."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return write_bytes_atomic(path, f"{text}\n".encode("utf-8"), tmp_dir,
                              exclusive=exclusive)


#: What identifies one published file: ``(inode, size, mtime_ns)``, or
#: ``None`` for no file.  Every write is a fresh file renamed or linked
#: into place (:func:`write_bytes_atomic`), so a publish always changes it.
Signature = Optional[Tuple[int, int, int]]


def _signed(stat: os.stat_result) -> Signature:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def read_bytes(path: str) -> Tuple[Optional[bytes], Signature]:
    """The bytes of ``path``, in one read, and the signature of the file
    they came from; ``(None, None)`` if the file vanished (lost a rename
    race)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(), _signed(os.fstat(handle.fileno()))
    except FileNotFoundError:
        return None, None


def file_signature(path: str) -> Signature:
    """The signature of the file now at ``path``, in one ``stat``."""
    try:
        return _signed(os.stat(path))
    except FileNotFoundError:
        return None


def parse_json_object(data: bytes, path: str) -> Optional[Dict[str, Any]]:
    """``data`` (read from ``path``) as a JSON object.  Fail closed: bytes
    that are not UTF-8, text that is not JSON and JSON that is not an
    object are reported and read as absent, so the caller recomputes
    instead of trusting or crashing on them.  Every file the queue and the
    cache write is published whole (:func:`write_bytes_atomic`), so such
    bytes are damage, never a write still in progress."""
    try:
        value = json.loads(data.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError, json.JSONDecodeError
        value = None
    if not isinstance(value, dict):
        logger.warning("ignoring corrupt JSON file %s", path)
        return None
    return value


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object in ``path``; ``None`` if the file vanished or is
    damaged (see :func:`parse_json_object`)."""
    data, _ = read_bytes(path)
    return None if data is None else parse_json_object(data, path)


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

    def states(self) -> Dict[str, str]:
        """Every enqueued name's state, from one listing of each state
        directory (a name that moved between two listings shows its later
        state, or is missing if it moved back)."""
        return {name: state for state in _STATES for name in self.names(state)}

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
        try:
            with open(self._task_path(state, name), "x"):
                pass
        except FileExistsError:
            return False  # another submitter created it first
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

    def claim(self, worker_id: str, lease_seconds: float,
              limit: int) -> List[str]:
        """Atomically claim a run of up to ``limit`` pending tasks under one
        lease; the run's names in claim order, ``[]`` if none were left.

        Each pending->leased rename is a claim of its own: when several
        workers race for the same file exactly one rename succeeds, and a
        run is whatever this worker won.  The lease is published *before*
        the renames so a freshly claimed task is never observed
        leased-but-leaseless (which :meth:`requeue_stale` would misread as a
        dead worker), and it is published *exclusively*: a lease file
        belongs to the one claim that created it, so a claimant that loses
        the race never overwrites the winner's lease.  A first name whose
        lease another claim already holds is skipped for this call.  If
        some renames were lost the lease is rewritten to name exactly the
        run that was won, under its first name; when that first name's
        lease is held by another claim (which is about to lose it), the run
        is given back rather than left under a lease named after a task
        this worker does not hold.

        Candidates come from a remembered listing of ``pending/`` that is
        only refreshed once it runs out, so draining a grid costs one
        directory scan per listing rather than one per claim; names other
        workers took since the listing are skipped by a cheap existence
        check before any lease is written.
        """
        held: Set[str] = set()  # pending names whose lease another claim holds
        while True:
            if not self._backlog:
                self._backlog = [name for name in self.names("pending")[::-1]
                                 if name not in held]
                if not self._backlog:
                    return []
            candidates: List[str] = []
            while self._backlog and len(candidates) < limit:
                name = self._backlog.pop()
                if os.path.exists(self._task_path("pending", name)):
                    candidates.append(name)  # not taken since the listing
            if not candidates:
                continue
            first = candidates[0]
            if not self.heartbeat(first, worker_id, lease_seconds, candidates,
                                  exclusive=True):
                held.add(first)
                self._backlog.extend(reversed(candidates[1:]))
                continue
            run = [name for name in candidates
                   if self._move(name, "pending", "leased")]
            if run == candidates:
                return run
            if run and run[0] == first:
                self.heartbeat(first, worker_id, lease_seconds, run)
                return run
            if run and self.heartbeat(run[0], worker_id, lease_seconds, run,
                                      exclusive=True):
                self.drop_lease(first)
                return run
            # Nothing won, or the run's first name is under another claim's
            # lease: give back what was won while ``first``'s lease still
            # covers it, then drop that lease.
            for name in run:
                self.release(name)
            self.drop_lease(first)

    def heartbeat(self, name: str, worker_id: str, lease_seconds: float,
                  names: Optional[Sequence[str]] = None, *,
                  exclusive: bool = False) -> bool:
        """Publish or refresh the lease ``name`` (a run's first marker)
        covering ``names`` (default: ``name`` alone).  Workers call this at
        claim and then from a background thread while the run executes.
        With ``exclusive`` (the claim's first publication) an existing lease
        is left alone and ``False`` is returned."""
        now = time.time()
        return write_json_atomic(self._lease_path(name), {
            "worker": worker_id,
            "time": now,
            "expires": now + lease_seconds,
            "names": [name] if names is None else list(names),
        }, self.tmp_dir, exclusive=exclusive)

    def complete(self, name: str) -> bool:
        """Move a leased task to done; its run's lease stays until the run's
        owner drops it (:meth:`drop_lease`).

        Tolerates the task having been requeued and completed by someone
        else meanwhile (possible after a lease expired under a live but
        slow worker) — the cache made the execution idempotent, so the only
        thing left to do is not crash.
        """
        return (self._move(name, "leased", "done")
                or self.state_of(name) == "done")

    def release(self, name: str) -> None:
        """Return a leased task to pending (graceful give-back); its run's
        lease is dropped separately."""
        self._move(name, "leased", "pending")

    def reopen(self, name: str) -> None:
        """Return a done task to pending: its cached result is gone or no
        longer trusted, so the cell has to run again."""
        self._move(name, "done", "pending")

    def requeue_stale(self, now: Optional[float] = None) -> List[str]:
        """Move leased tasks that no live lease covers back to pending.

        Each lease file is read once.  An expired (or unreadable) lease is
        dropped, as is one whose names are all done; every leased task not
        named by a remaining live lease is requeued.  Safe to call from any
        process at any time: the leased->pending rename is atomic, so
        concurrent requeuers (or a completing worker) cannot duplicate or
        lose a task.  Returns the requeued names.
        """
        now = time.time() if now is None else now
        # List the tasks before the leases: a claim publishes its lease
        # before its renames, so every task listed here as leased has its
        # lease in the listing below (unless the run has since finished).
        leased = self.names("leased")
        covered: Set[str] = set()
        dropped: List[str] = []
        for entry in os.listdir(self.lease_dir):
            if not entry.endswith(".json"):
                continue
            name = entry[:-len(".json")]
            lease = read_json(self._lease_path(name))
            if lease is None or lease.get("expires", 0.0) <= now:
                dropped.append(name)
                continue
            names = lease.get("names", [name])
            if all(os.path.exists(self._task_path("done", task))
                   for task in names):
                dropped.append(name)  # finished; an orphan of a lost race
            else:
                covered.update(names)
        # Drop dead leases *before* any rename: once a task is back in
        # pending another worker may claim it immediately, and a drop after
        # the rename could delete that claimant's fresh lease.
        for name in dropped:
            self.drop_lease(name)
        return [name for name in leased
                if name not in covered and self._move(name, "leased", "pending")]

    def drop_lease(self, name: str, owner: Optional[str] = None) -> None:
        """Delete the lease ``name``.  With ``owner`` given, only if it still
        names that worker, so a late finisher cannot delete the live lease
        of whoever re-claimed its run."""
        if owner is not None:
            lease = read_json(self._lease_path(name))
            if lease is not None and lease.get("worker") != owner:
                return  # someone else re-claimed the task; leave their lease
        try:
            os.remove(self._lease_path(name))
        except FileNotFoundError:
            pass
