"""Sweep-executor work gate: the queue's bookkeeping stays in proportion.

Clock-free, like the tracing gate next door — counts, never wall-clock.  A
coordinator pass over a grid in a scratch directory is wrapped in call
counters on the file primitives every cluster module goes through
(``write_bytes_atomic``, which ``write_json_atomic`` writes through,
``read_bytes``, which ``read_json`` reads through, ``os.listdir``,
``os.rename`` / ``os.replace`` / ``os.link``, and the existence probes
``os.path.exists`` / ``os.stat``), on lease writes
(``FileQueue.heartbeat``), on ``threading.Thread.start`` and
``ClusterWorker.run``, and on ``expand_grid``:

* a **cold** pass writes the manifest once, one cache entry per cell and
  one lease per *run* of cells — a worker claims runs sized from its own
  cell wall-clock, so there are fewer leases than cells — and nothing else
  (task files are empty markers, nothing describes a cell twice).  Each
  cell's marker moves twice (claim, done) and each write is one rename (or,
  for a lease published at claim, one link).  It reads the manifest, each
  cache entry once (the submit's miss; the worker that then claims the
  cell asks again with one ``stat``) and each lease once, when it drops it;
  each ``ClusterWorker.run`` starts at most one heartbeat thread.  It lists
  directories a number of times that does not depend on the size of the
  grid (claims walk a remembered listing; completion is checked when a
  claim comes back empty, not before each one);
* a **resumed warm** pass writes nothing, expands nothing (the stored
  manifest is compared by identity first and is the authority), and reads
  the manifest plus each cache entry once — the entry read at submit is
  the one merged.  It probes no marker one by one: submit lists the queue
  once, so the pass makes as many existence probes on a 12-cell grid as
  on a 4-cell one.

Building the manifest renders each cell's spec twice (``to_dict`` once to
apply the grid's overrides and the derived seed in one pass, once for the
record, whose dict the cell's hash reads) and parses it once
(``from_dict``): the parent of the PR that pinned this rendered it three or
four times and parsed it once or twice.

The parent of the PR that added this gate sat at three writes per cell, two
reads per cached cell and one full expansion per resume; the parent of the
PR that claimed runs under one lease wrote a lease and started a heartbeat
thread per cell (``1 + 2·cells`` writes).

The document a pass ends with is written by ``document_json``: the gate
below pins its bytes to stdlib's ``json.dumps(indent=2, sort_keys=True)``
and the Python calls it makes (``sys.setprofile`` call events) to at most
one per container plus one per float, bool or None value, both when it
encodes the whole document (as it encodes each result, once, when the
cell is resolved) and when it splices the results in.  Stdlib's
generator-based encoder resumes a generator once per value or more
(465,899 call events on the 200-cell document, against 5,502 whole and
825 spliced; the test prints all three).  Each cell's result is encoded once, when the cell is
resolved, and the document splices that text: on a resumed pass
``to_json`` calls ``_write_json`` for the document's head (everything but
the cells), for each cell's dict and overrides and once per cell result,
never inside one (621 calls on the 200-cell document, against 5,501 to
encode it whole; the test prints both and its bound).
"""

import json
import os
import sys
import threading

import pytest

from repro.cluster import ClusterWorker, FileQueue, RunManifest, SweepCoordinator
from repro.cluster import cache as cache_module
from repro.cluster import fsqueue as fsqueue_module
from repro.cluster import manifest as manifest_module
from repro.experiments import default_flood_spec
from repro.experiments import spec as spec_module
from repro.experiments.spec import ExperimentSpec
from repro.experiments import sweep as sweep_module
from repro.experiments.spec import document_json

BASE = dict(duration=0.5, attack_pps=200.0, legit_pps=100.0)
GRID_12 = {"defense.backend": ["aitf", "pushback", "none"],
           "workloads.1.params.rate_pps": [150.0, 300.0],
           "seed": [1, 2]}
GRID_4 = {"defense.backend": ["aitf", "none"], "seed": [1, 2]}


class WorkCounters:
    """Counts calls to the named module-level functions, wherever the
    cluster modules imported them to, and to a few methods."""

    COUNTED = {
        "write_bytes_atomic": (fsqueue_module, cache_module),
        "read_bytes": (fsqueue_module, cache_module),
        "expand_grid": (sweep_module, manifest_module),
    }
    METHODS = {
        "lease": (FileQueue, "heartbeat"),
        "thread": (threading.Thread, "start"),
        "worker_run": (ClusterWorker, "run"),
    }

    def __init__(self, monkeypatch, cluster_dir):
        self.calls = dict.fromkeys(
            [*self.COUNTED, *self.METHODS, "listdir", "rename", "probe"], 0)
        for name, modules in self.COUNTED.items():
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, self._counting(name, getattr(module, name)))
        for name, (owner, attribute) in self.METHODS.items():
            monkeypatch.setattr(owner, attribute,
                                self._counting(name, getattr(owner, attribute)))
        real_listdir = os.listdir

        def listdir(path="."):
            if str(path).startswith(cluster_dir):
                self.calls["listdir"] += 1
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        for owner, function in ((os.path, "exists"), (os, "stat")):
            monkeypatch.setattr(owner, function, self._probing(
                cluster_dir, getattr(owner, function)))
        for function in ("rename", "replace", "link"):
            monkeypatch.setattr(os, function, self._moving(
                cluster_dir, getattr(os, function)))

    def _counting(self, name, function):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted

    def _probing(self, cluster_dir, function):
        def probed(path, *args, **kwargs):
            if str(path).startswith(cluster_dir):
                self.calls["probe"] += 1
            return function(path, *args, **kwargs)
        return probed

    def _moving(self, cluster_dir, function):
        def moved(source, target, *args, **kwargs):
            if str(target).startswith(cluster_dir):
                self.calls["rename"] += 1
            return function(source, target, *args, **kwargs)
        return moved

    def take(self):
        taken, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return taken


def run_pass(cluster_dir, grid, **kwargs):
    return SweepCoordinator(cluster_dir).run_grid(
        default_flood_spec(**BASE), grid, **kwargs)


def test_cold_and_warm_passes_do_work_in_proportion_to_the_grid(
        tmp_path, monkeypatch):
    counters = WorkCounters(monkeypatch, str(tmp_path))
    cells = 12

    cold = run_pass(str(tmp_path / "q12"), GRID_12)
    cold_work = counters.take()
    assert len(cold.cells) == cells
    assert cold.provenance["cache"] == {"hits": 0, "misses": cells}
    # The manifest, a cache entry per cell, a lease per run of cells.
    leases = cold_work["lease"]
    assert leases < cells, cold_work
    assert cold_work["write_bytes_atomic"] <= 1 + cells + leases, cold_work
    # run.json, each cache entry once (its miss at submit), each lease once.
    assert cold_work["read_bytes"] <= 1 + cells + leases, cold_work
    # Each marker moves twice (claim, done); each write is one rename/link.
    assert cold_work["rename"] <= 2 * cells + cold_work["write_bytes_atomic"], \
        cold_work
    assert cold_work["thread"] <= cold_work["worker_run"], cold_work
    assert cold_work["expand_grid"] == 1, cold_work

    run_pass(str(tmp_path / "q4"), GRID_4)
    small_work = counters.take()
    # Directory scans do not grow with the grid.
    assert cold_work["listdir"] == small_work["listdir"], (cold_work,
                                                           small_work)

    warm = run_pass(str(tmp_path / "q12"), GRID_12, resume=True)
    warm_work = counters.take()
    assert warm.provenance["cache"] == {"hits": cells, "misses": 0}
    assert warm.to_json() == cold.to_json()
    assert warm_work["write_bytes_atomic"] == 0, warm_work
    assert warm_work["expand_grid"] == 0, warm_work
    # run.json, then each cache entry once (the one that is merged).
    assert warm_work["read_bytes"] <= 1 + cells, warm_work
    assert warm_work["listdir"] <= cold_work["listdir"], (warm_work, cold_work)

    run_pass(str(tmp_path / "q4"), GRID_4, resume=True)
    small_warm_work = counters.take()
    # Submit decides each marker from one listing of the queue, not from a
    # probe per cell.
    assert warm_work["probe"] == small_warm_work["probe"], (warm_work,
                                                            small_warm_work)


@pytest.mark.parametrize("grid, reseed", [
    (GRID_12, True),
    ({"defense.backend": ["aitf", "pushback", "ingress-dpf", "manual", "none"],
      "workloads.1.params.rate_pps": [500.0, 1000.0, 1500.0, 2000.0, 3000.0,
                                      4000.0, 5000.0, 6000.0]}, True),
    (GRID_12, False),
], ids=["seed_axis", "derived_seed", "base_seed"])
def test_building_the_manifest_renders_each_cell_spec_twice(
        monkeypatch, grid, reseed):
    calls = {"to_dict": 0, "from_dict": 0}
    real_to_dict = ExperimentSpec.to_dict
    real_from_dict = ExperimentSpec.from_dict.__func__

    def to_dict(self):
        calls["to_dict"] += 1
        return real_to_dict(self)

    def from_dict(cls, data):
        calls["from_dict"] += 1
        return real_from_dict(cls, data)

    monkeypatch.setattr(ExperimentSpec, "to_dict", to_dict)
    monkeypatch.setattr(ExperimentSpec, "from_dict", classmethod(from_dict))
    manifest = RunManifest.build(default_flood_spec(**BASE), grid,
                                 reseed=reseed)
    cells = len(manifest)
    assert calls["to_dict"] <= 2 * cells + 1, (calls, cells)
    assert calls["from_dict"] == cells, (calls, cells)


def test_a_resume_with_another_grid_is_still_refused_without_expanding(
        tmp_path, monkeypatch):
    from repro.cluster import ClusterError

    run_pass(str(tmp_path), GRID_4)
    counters = WorkCounters(monkeypatch, str(tmp_path))
    with pytest.raises(ClusterError, match="different"):
        run_pass(str(tmp_path), GRID_12, resume=True)
    assert counters.take()["expand_grid"] == 0


def python_calls(function, *args):
    """What ``function(*args)`` returns, and how many Python call events
    (calls and generator resumptions) ``sys.setprofile`` saw meanwhile."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        value = function(*args)
    finally:
        sys.setprofile(None)
    return value, calls


def write_json_calls(function, *args):
    """What ``function(*args)`` returns, and how many times it called the
    encoder's ``_write_json`` meanwhile."""
    write_code = spec_module._write_json.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is write_code

    sys.setprofile(count)
    try:
        value = function(*args)
    finally:
        sys.setprofile(None)
    return value, calls


def value_counts(value, counts):
    """Tally ``value``'s containers and its float, bool and None leaves."""
    if isinstance(value, (dict, list)):
        counts["containers"] += 1
        for item in (value.values() if isinstance(value, dict) else value):
            value_counts(item, counts)
    elif value is None or isinstance(value, (bool, float)):
        counts["scalars"] += 1
    return counts


WARM_BASE = default_flood_spec(duration=2.0, attack_pps=5000.0).with_overrides({
    "engine.mode": "train", "sample_occupancy": False,
    "topology.params.extra_good_hosts": 1,
    "defense.params.non_cooperating": ["B_host"]})
WARM_GRID = {"defense.backend": ["aitf", "pushback", "ingress-dpf", "manual",
                                 "none"],
             "workloads.1.params.rate_pps": [500.0, 1000.0, 1500.0, 2000.0,
                                             3000.0, 4000.0, 5000.0, 6000.0],
             "seed": [1, 2, 3, 4, 5]}


@pytest.fixture(scope="module")
def warm_grid_dir(tmp_path_factory):
    """A cold coordinator pass over a 200-cell grid shaped like the
    ``sweep_warm`` bench workload (5 defenses x 8 rates x 5 seeds, train
    engine, 2 s): its queue directory and its sweep."""
    cluster_dir = str(tmp_path_factory.mktemp("warm_grid"))
    return cluster_dir, SweepCoordinator(cluster_dir).run_grid(WARM_BASE,
                                                               WARM_GRID)


def test_the_sweep_document_is_stdlibs_text_in_a_call_per_container(
        warm_grid_dir):
    _, sweep = warm_grid_dir
    document = sweep.to_dict()
    assert len(document["cells"]) == 200

    # Whole, every value written: the work of encoding each result once,
    # as its cell is resolved, summed over the cells.
    whole_text, whole_calls = python_calls(document_json, document)
    # Spliced from those texts, as the pass writes it.
    text, calls = python_calls(sweep.to_json)
    stdlib_text, stdlib_calls = python_calls(
        lambda: json.dumps(document, indent=2, sort_keys=True))
    assert whole_text == text == stdlib_text
    counts = value_counts(document, {"containers": 0, "scalars": 0})
    print(f"\nsweep document: {len(text)} bytes, {counts['containers']} "
          f"containers, {counts['scalars']} float/bool/None values; "
          f"Python call events: document_json {whole_calls} whole, {calls} "
          f"spliced, stdlib {stdlib_calls}")
    bound = counts["containers"] + counts["scalars"]
    assert whole_calls <= bound, (whole_calls, counts)
    assert calls <= bound, (calls, counts)


def test_a_resumed_sweep_splices_each_cached_result_without_encoding_it(
        warm_grid_dir):
    """Every cell of the resumed pass is a cache hit, and its result goes
    into the document as the text the cache holds: ``_write_json`` is
    called for the document's head and for each cell's dict, overrides
    and result, and never for a value inside a result."""
    cluster_dir, cold = warm_grid_dir
    warm = SweepCoordinator(cluster_dir).run_grid(WARM_BASE, WARM_GRID,
                                                  resume=True)
    assert warm.provenance["cache"] == {"hits": 200, "misses": 0}
    text, writes = write_json_calls(warm.to_json)
    assert text == cold.to_json()
    document = warm.to_dict()
    _, head = write_json_calls(document_json, {**document, "cells": []})
    _, encoded = write_json_calls(document_json, document)
    cells = len(document["cells"])
    # A cell's dict, its overrides and its spliced result.
    bound = 3 * cells + head
    print(f"\nresumed sweep document: _write_json calls {writes}, bound "
          f"{bound} ({cells} cells, {head} for the head; encoding every "
          f"result again makes {encoded})")
    assert writes <= bound, (writes, bound)
