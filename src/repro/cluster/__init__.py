"""Distributed sweep execution over a shared directory.

``repro sweep`` on one process pool stops scaling at one machine, and a
crash throws away every completed cell.  This package turns a sweep into a
coordinator/worker system with nothing but a directory any participant can
reach (local disk for multi-process runs, NFS or a mounted volume for
multi-machine ones):

- :class:`RunManifest` — the durable record of what the sweep *is* (base
  spec, grid, every expanded cell), written once so a resumed run cannot
  drift from the original.  ``run.json`` is the *only* description of a
  cell; everything else in the directory refers to a cell by its position.
- :class:`FileQueue` — a durable work queue of empty cell *markers*.
  Claiming is an atomic ``rename`` (exactly one winner per task, no locks,
  no daemons), workers heartbeat leases, and anyone may requeue a lease
  whose holder died.
- :class:`CellCache` — content-addressed results keyed by the SHA-256 of
  each cell's canonical spec (:func:`repro.experiments.spec.spec_hash`).
  Re-running a sweep skips every already-computed cell; editing one axis
  only recomputes the cells it touches.
- :class:`ClusterWorker` — the ``repro worker`` daemon, and the one claim
  loop: claim a run of markers under one lease, resolve and complete each
  cell, drop the lease, until the run finishes.
- :class:`SweepCoordinator` — expands the grid, enqueues cache-missing
  cells, runs that same claim loop alongside the workers, and merges the
  finished run into an ``experiment_sweep/v1`` document **byte-identical**
  to a serial ``repro sweep`` — regardless of worker count, execution
  order, or mid-run crashes (``--resume`` picks up exactly where the queue
  left off).

A sweep is two choices — where results persist (nowhere, or a
:class:`CellCache`) and who executes the cache misses (the calling process,
its process pool, or the workers of a queue directory).  This package
supplies the cache and the queue transport; resolving a cell (cache first,
else execute and publish), per-cell progress, the provenance record and the
merge are :class:`repro.experiments.sweep.CellResolver`, shared with the
local :class:`repro.experiments.sweep.SweepRunner`.

Quickstart (three shells, one shared directory)::

    repro sweep --param defense.backend=aitf,pushback \
                --cluster /shared/q --enqueue-only        # shell 1
    repro worker --cluster /shared/q                      # shell 2
    repro worker --cluster /shared/q                      # shell 3
    repro sweep --param defense.backend=aitf,pushback \
                --cluster /shared/q --resume --output sweep.json   # shell 1
"""

from repro.cluster.cache import CellCache
from repro.cluster.coordinator import ClusterError, SweepCoordinator
from repro.cluster.fsqueue import FileQueue
from repro.cluster.manifest import MANIFEST_SCHEMA, RunManifest
from repro.cluster.worker import ClusterWorker, WorkerStats

__all__ = [
    "CellCache",
    "ClusterError",
    "ClusterWorker",
    "FileQueue",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "SweepCoordinator",
    "WorkerStats",
]
