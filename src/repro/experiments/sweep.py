"""Parameter sweeps: expand a grid over a base spec, run cells in parallel.

``expand_grid`` turns ``{"defense.backend": ["aitf", "pushback"],
"duration": [4, 8]}`` into one :class:`SweepCell` per combination, each with
a deterministic seed derived from the base seed and the cell's overrides (a
stable SHA-256 derivation — independent of Python's hash randomisation, of
grid insertion order, and of how many workers later execute the sweep).

Running the cells is two independent decisions and one shared body:

- **where results persist** — nowhere, or a content-addressed cell cache
  (:class:`repro.cluster.CellCache`);
- **who executes the misses** — this process, the local process pool
  (:class:`SweepRunner`), or the workers of a shared queue directory
  (:mod:`repro.cluster`);
- :class:`CellResolver` is everything else, written once: cache-first
  lookup, execute, publish, the progress callback, the provenance record
  and the merge.  Every mode produces its bytes through it, which is what
  makes a serial run, a pool run and a killed-and-resumed cluster run of
  one grid byte-identical.

Everything execution-dependent (worker count, cache hits, wall-clock) lives
in a separate *provenance* record, never in the document itself.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import (EncodedJSON, ExperimentSpec, document_json,
                                    rendered_spec_hash)
from repro.obs.logsetup import get_logger

logger = get_logger("experiments.sweep")

#: Version tag written into serialized sweep documents.
SWEEP_SCHEMA = "experiment_sweep/v1"

#: Version tag written into sweep provenance sidecar documents.
PROVENANCE_SCHEMA = "sweep_provenance/v1"


def derive_cell_seed(base_seed: int, overrides: Mapping[str, Any]) -> int:
    """A stable per-cell seed from the base seed and the cell's overrides.

    Uses SHA-256 rather than ``hash()`` so the derivation survives process
    boundaries and ``PYTHONHASHSEED`` changes — the property the parallel
    determinism guarantee rests on.
    """
    payload = json.dumps(
        [int(base_seed), sorted((str(k), repr(v)) for k, v in overrides.items())],
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class SweepCell:
    """One grid point: the overrides applied and the concrete spec to run."""

    index: int
    overrides: Dict[str, Any]
    spec: ExperimentSpec

    @cached_property
    def _spec_data(self) -> Dict[str, Any]:
        """The spec's dict form, rendered once: the record's ``spec`` and
        what :attr:`spec_hash` hashes (read it, do not edit it)."""
        return self.spec.to_dict()

    @cached_property
    def spec_hash(self) -> str:
        """Content address of this cell (see
        :func:`repro.experiments.spec.spec_hash`), computed once."""
        return rendered_spec_hash(self._spec_data)

    def to_dict(self) -> Dict[str, Any]:
        """The cell *record*: the one description of a cell that every
        executor works from and that a cluster run's ``run.json`` stores."""
        return {
            "index": self.index,
            "overrides": dict(self.overrides),
            "seed": self.spec.seed,
            "spec": self._spec_data,
            "spec_hash": self.spec_hash,
        }


def axis_paths(axis: str) -> List[str]:
    """The dotted spec paths one grid axis sets.

    Most axes are a single path.  A *compound* axis joins several paths with
    commas (``"aitf.default_accept_rate,workloads.0.params.rate"``) and its
    values are lists with one entry per path — the way the paper's R1/R2
    sweeps move a contract rate and an offered rate together.
    """
    return [segment.strip() for segment in axis.split(",") if segment.strip()]


def _axis_overrides(axis: str, value: Any) -> Dict[str, Any]:
    """One axis point as per-path overrides (splitting compound axes)."""
    paths = axis_paths(axis)
    if len(paths) == 1:
        return {paths[0]: value}
    if not isinstance(value, (list, tuple)) or len(value) != len(paths):
        raise ValueError(
            f"compound axis {axis!r} sets {len(paths)} paths, so each value "
            f"must be a list of {len(paths)} entries (got {value!r})")
    return dict(zip(paths, value))


def expand_grid(base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
                *, reseed: bool = True) -> List[SweepCell]:
    """Cartesian-product ``grid`` over ``base`` into concrete sweep cells.

    Grid keys are dotted paths into the spec (``defense.backend``,
    ``workloads.1.params.rate_pps``, ``duration``) or compound
    comma-joined paths (see :func:`axis_paths`); values are the points on
    that axis.  With ``reseed`` (the default) every cell gets its own
    derived seed; ``reseed=False`` keeps the base seed in every cell, which
    pairs cells for like-for-like defense comparisons.  A ``seed`` axis in
    the grid always wins over both — sweeping seeds explicitly is how
    replication studies ask for *those* seeds, so reseeding must not
    silently replace them.
    """
    axes = [(key, list(values)) for key, values in grid.items()]
    for key, values in axes:
        if not values:
            raise ValueError(f"sweep axis {key!r} has no values")
    cells: List[SweepCell] = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides: Dict[str, Any] = {}
        for (key, _), value in zip(axes, combo):
            overrides.update(_axis_overrides(key, value))
        applied = overrides
        if reseed and "seed" not in overrides:
            # The derived seed goes in the same override pass; the record
            # keeps the grid's overrides only.
            applied = {**overrides,
                       "seed": derive_cell_seed(base.seed, overrides)}
        cells.append(SweepCell(index=len(cells), overrides=overrides,
                               spec=base.with_overrides(applied)))
    return cells


def execute_cell(spec_data: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell from its dict form.

    This is *the* cell executor: the local process pool, the cluster worker
    daemon and the coordinator's inline execution all reach it through
    :func:`execute_cell_timed`, so a cell computes the same result dict
    wherever it lands.
    """
    spec = ExperimentSpec.from_dict(spec_data)
    return ExperimentRunner().run(spec).to_dict()


def execute_cell_timed(spec_data: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """``execute_cell`` plus the wall-clock it took, measured where the
    cell runs (module-level so it pickles into a pool child)."""
    start = time.perf_counter()
    result = execute_cell(spec_data)
    return result, time.perf_counter() - start


def merge_cell_documents(cells: Sequence[Mapping[str, Any]],
                         results: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Assemble the ``cells`` of an ``experiment_sweep/v1`` document, in
    grid order.

    ``cells`` are cell records (:meth:`SweepCell.to_dict`) and ``results``
    must align with them; how the results were computed (serial, process
    pool, cluster cache) is irrelevant — this is the single merge path, so
    every execution mode emits the same document.
    """
    if len(cells) != len(results):
        raise ValueError(
            f"{len(cells)} cells but {len(results)} results to merge")
    return [{"index": cell["index"], "overrides": dict(cell["overrides"]),
             "seed": cell["seed"], "result": result}
            for cell, result in zip(cells, results)]


@dataclass
class SweepResult:
    """Every cell's result, in grid order, plus the provenance to rerun it.

    ``to_dict`` / ``to_json`` / ``write`` emit the *canonical* sweep
    document: only fields every execution mode agrees on, so a serial run,
    a process-pool run and a resumed multi-machine cluster run of the same
    grid produce byte-identical files.  Worker counts, cache hit/miss
    statistics and per-cell wall-clock are auditable but execution-dependent,
    so they ride in ``provenance`` and are written to a separate sidecar
    (:meth:`write_provenance`), never into the document.

    A :class:`CellResolver` builds every ``SweepResult``, and hands it each
    cell's result twice: as the dict in ``cells`` (what :meth:`to_dict`
    returns) and as the text it was encoded to once (what :meth:`to_json`
    splices in).  The two say the same thing only while ``cells`` is left
    as merged: read it, do not edit it.
    """

    base_spec: Dict[str, Any]
    grid: Dict[str, List[Any]]
    cells: List[Dict[str, Any]]
    #: Each cell's result as :func:`document_json` text, in cell order:
    #: what :meth:`to_json` splices in instead of encoding it again.
    _result_texts: List[str] = field(repr=False)
    provenance: Dict[str, Any] = field(default_factory=dict)
    schema: str = SWEEP_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """The canonical, execution-independent sweep document."""
        return {
            "schema": self.schema,
            "base_spec": self.base_spec,
            "grid": self.grid,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """The sweep document as JSON text: :func:`document_json` of
        :meth:`to_dict`, each cell's result spliced from its text."""
        document = self.to_dict()
        document["cells"] = [{**cell, "result": EncodedJSON(text)}
                             for cell, text in zip(self.cells,
                                                   self._result_texts)]
        return document_json(document)

    def write(self, path: str) -> None:
        """Write the canonical sweep document to a JSON file."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def provenance_dict(self) -> Dict[str, Any]:
        """The provenance record (schema-tagged, JSON-serializable)."""
        return {"schema": PROVENANCE_SCHEMA, **self.provenance}

    def write_provenance(self, path: str) -> None:
        """Write the provenance sidecar to a JSON file."""
        with open(path, "w") as handle:
            handle.write(document_json(self.provenance_dict()))
            handle.write("\n")


def provenance_sidecar_path(output_path: str) -> str:
    """Where the provenance sidecar for ``output_path`` lives
    (``sweep.json`` -> ``sweep.provenance.json``)."""
    if output_path.endswith(".json"):
        return output_path[:-len(".json")] + ".provenance.json"
    return output_path + ".provenance.json"


class CellResolver:
    """One pass over a list of cell records: what every execution mode shares.

    The caller decides where results persist (``cache``: ``None``, or an
    object with :class:`repro.cluster.CellCache`'s ``get`` / ``put``) and
    who executes a miss (it calls :meth:`execute` to run the cell in this
    process, or hands a result computed elsewhere to :meth:`publish`).  The
    resolver does the rest, once: cache-first :meth:`lookup`, publishing to
    the cache, the per-cell ``progress`` callback (a plain info dict:
    position, total, index, spec_hash, seed, wall_seconds, worker, cached —
    called exactly once per cell, in completion order) and, when every cell
    is resolved, the merged document with its provenance record
    (:meth:`sweep_result`).  Progress and provenance never touch results,
    which always merge in grid order.

    Each result is encoded once, when it is resolved: :meth:`publish`
    writes it with :func:`document_json`, and a cache hit comes with the
    text it was stored as.  The merged document splices those texts.
    """

    def __init__(self, cells: Sequence[Mapping[str, Any]], *, cache: Any = None,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None,
                 worker: str = "") -> None:
        self.cells = cells
        self.cache = cache
        self.progress = progress
        self.worker = worker
        self.results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        #: Each result's :func:`document_json` text, beside it.
        self.texts: List[Optional[str]] = [None] * len(cells)
        #: Per-cell provenance records; ``None`` marks an unresolved cell.
        self.records: List[Optional[Dict[str, Any]]] = [None] * len(cells)

    def lookup(self, position: int, *, cached: bool = True) -> bool:
        """Resolve ``position`` from the cache; whether it was there.

        The entry is read once and kept for the merge: a position that is
        already resolved is not read (or reported) again.  ``cached`` is
        what the record says of it: ``False`` for a result this same run
        computed (on another worker) and the caller is merely collecting.
        """
        if self.records[position] is not None:
            return True
        if self.cache is None:
            return False
        entry = self.cache.get(self.cells[position]["spec_hash"])
        if entry is None:
            return False
        self._resolve(position, entry["result"], entry["result_text"],
                      entry.get("wall_seconds", 0.0), entry.get("worker", ""),
                      cached)
        return True

    def execute(self, position: int) -> None:
        """Run ``position`` in this process and publish its result."""
        self.publish(position, *execute_cell_timed(self.cells[position]["spec"]))

    def publish(self, position: int, result: Dict[str, Any],
                wall_seconds: float) -> None:
        """Record a freshly computed result (and persist it, given a cache)."""
        if self.cache is None:
            text = document_json(result)
        else:
            text = self.cache.put(self.cells[position]["spec_hash"], result,
                                  worker=self.worker, wall_seconds=wall_seconds)
        self._resolve(position, result, text, wall_seconds, self.worker, False)

    def _resolve(self, position: int, result: Dict[str, Any], text: str,
                 wall_seconds: float, worker: str, cached: bool) -> None:
        cell = self.cells[position]
        self.results[position] = result
        self.texts[position] = text
        record = {"index": cell["index"], "spec_hash": cell["spec_hash"],
                  "seed": cell["seed"], "wall_seconds": wall_seconds,
                  "worker": worker, "cached": cached}
        self.records[position] = record
        if self.progress is not None:
            self.progress({"position": position, "total": len(self.cells),
                           **record})

    def sweep_result(self, base_spec: Dict[str, Any],
                     grid: Dict[str, List[Any]],
                     **provenance: Any) -> SweepResult:
        """The merged sweep and its provenance record (``provenance`` adds
        the mode's own fields: mode, workers, wall_seconds, …)."""
        hits = sum(record["cached"] for record in self.records)
        return SweepResult(
            base_spec=base_spec,
            grid=grid,
            cells=merge_cell_documents(self.cells, self.results),
            _result_texts=list(self.texts),
            provenance={
                **provenance,
                "root_seed": base_spec.get("seed"),
                "cache": {"hits": hits, "misses": len(self.cells) - hits},
                "cells": self.records,
            },
        )


#: Persistent process pools shared by every SweepRunner in this process,
#: keyed by worker count.  Pool startup (interpreter spawn + imports) used
#: to be paid per sweep, which made a 2-worker pool *slower* than serial on
#: small grids; reusing the pool across sweeps amortises it away.
_SHARED_POOLS: Dict[int, concurrent.futures.ProcessPoolExecutor] = {}


def pool_start_method() -> str:
    """How the shared pools start their workers: ``fork`` where the
    platform offers it (the Linux default before Python 3.14, and what the
    pool's start-up cost was measured with), else ``spawn``.  Named here so
    an interpreter upgrade (3.14 defaults to ``forkserver``) cannot change
    it silently."""
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"


def _shared_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(workers)
    if pool is None:
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(pool_start_method()))
        _SHARED_POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _SHARED_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_shared_pools() -> None:  # pragma: no cover - process teardown
    for workers in list(_SHARED_POOLS):
        _discard_pool(workers)


class SweepRunner:
    """Expand a grid and run every cell in this process or on its pool.

    ``workers <= 1`` executes cache misses serially in-process.
    ``workers > 1`` dispatches chunks of them onto a *persistent*
    ``ProcessPoolExecutor`` shared across sweeps (see
    :data:`_SHARED_POOLS`): pool startup is paid once per process instead
    of once per sweep, and chunked dispatch amortises the per-task pickling
    round-trip.  If the platform cannot spawn worker processes the runner
    logs a warning, finishes the sweep serially and says so in the
    provenance (``effective_workers``, ``fallback``; ``start_method``
    says how the pool started, see :func:`pool_start_method`).  Results
    are identical either way.

    ``cache`` (a :class:`repro.cluster.CellCache`) makes the run
    cache-first: hits skip the simulator and misses are published back so
    the next run hits.  ``hits`` / ``misses`` / ``wall_seconds`` are running
    totals over every :meth:`run_cells` call on this runner, for callers
    (the red-team loop) that issue many small batches and report once.

    For fan-out beyond one machine — or crash-safe re-runs — see
    :class:`repro.cluster.SweepCoordinator`, which drives the same
    :class:`CellResolver` from a shared queue directory.
    """

    def __init__(self, workers: int = 1,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None,
                 cache: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Per-cell progress callback (see :class:`CellResolver`).
        self.progress = progress
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self.wall_seconds = 0.0

    def cache_stats(self) -> Dict[str, int]:
        """Running hit/miss totals (provenance material)."""
        return {"hits": self.hits, "misses": self.misses}

    def run_grid(self, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
                 *, reseed: bool = True) -> SweepResult:
        """Expand ``grid`` over ``base`` and run all cells."""
        cells = expand_grid(base, grid, reseed=reseed)
        return self.run_cells(cells, base_spec=base.to_dict(),
                              grid={k: list(v) for k, v in grid.items()})

    def run_cells(self, cells: Sequence[SweepCell], *,
                  base_spec: Optional[Dict[str, Any]] = None,
                  grid: Optional[Dict[str, List[Any]]] = None) -> SweepResult:
        """Run pre-expanded cells; results come back in cell order."""
        resolver = CellResolver([cell.to_dict() for cell in cells],
                                cache=self.cache, progress=self.progress,
                                worker="local")
        start = time.perf_counter()
        misses = [position for position in range(len(cells))
                  if not resolver.lookup(position)]
        effective_workers, fallback, start_method = 1, None, None
        if self.workers > 1 and len(misses) > 1:
            start_method = pool_start_method()
            try:
                self._execute_on_pool(resolver, misses)
                effective_workers = self.workers
            except (OSError, concurrent.futures.BrokenExecutor) as error:
                # Sandboxes without fork/spawn still get a correct sweep:
                # whatever the pool did not finish runs serially below.  A
                # broken pool is discarded so the next sweep starts fresh.
                _discard_pool(self.workers)
                fallback = f"{type(error).__name__}: {error}"
                logger.warning("process pool of %d workers unavailable (%s); "
                               "running the remaining cells serially",
                               self.workers, fallback)
        for position in misses:
            if resolver.records[position] is None:
                resolver.execute(position)
        wall = time.perf_counter() - start
        self.hits += len(cells) - len(misses)
        self.misses += len(misses)
        self.wall_seconds += wall
        return resolver.sweep_result(
            base_spec or {}, grid or {}, mode="local", workers=self.workers,
            effective_workers=effective_workers, fallback=fallback,
            start_method=start_method, wall_seconds=wall)

    def _execute_on_pool(self, resolver: CellResolver,
                         misses: List[int]) -> None:
        # The pool is keyed (and sized) by the *requested* worker count, not
        # clamped to the grid: differently sized grids then reuse one pool
        # instead of accumulating a pool per distinct min(workers, cells).
        busy = min(self.workers, len(misses))
        # Cells per dispatched task: big enough to amortise pickling, small
        # enough that every worker gets at least a couple of chunks (load
        # balancing when cell durations vary across the grid).
        chunksize = max(1, math.ceil(len(misses) / (busy * 4)))
        specs = [resolver.cells[position]["spec"] for position in misses]
        timed = _shared_pool(self.workers).map(execute_cell_timed, specs,
                                               chunksize=chunksize)
        for position, (result, wall_seconds) in zip(misses, timed):
            resolver.publish(position, result, wall_seconds)
