"""Sweep-executor work gate: the queue's bookkeeping stays in proportion.

Clock-free, like the tracing gate next door — counts, never wall-clock.  A
coordinator pass over a grid in a scratch directory is wrapped in call
counters on the file primitives every cluster module goes through
(``write_json_atomic``, ``read_json``, ``os.listdir``, ``os.rename`` /
``os.replace`` / ``os.link``), on lease writes (``FileQueue.heartbeat``), on
``threading.Thread.start`` and ``ClusterWorker.run``, and on
``expand_grid``:

* a **cold** pass writes the manifest once, one cache entry per cell and
  one lease per *run* of cells — a worker claims runs sized from its own
  cell wall-clock, so there are fewer leases than cells — and nothing else
  (task files are empty markers, nothing describes a cell twice).  Each
  cell's marker moves twice (claim, done) and each write is one rename (or,
  for a lease published at claim, one link);
  each ``ClusterWorker.run`` starts at most one heartbeat thread.  It lists
  directories a number of times that does not depend on the size of the
  grid (claims walk a remembered listing; completion is checked when a
  claim comes back empty, not before each one);
* a **resumed warm** pass writes nothing, expands nothing (the stored
  manifest is compared by identity first and is the authority), and reads
  the manifest plus each cache entry once — the entry read at submit is
  the one merged.

The parent of the PR that added this gate sat at three writes per cell, two
reads per cached cell and one full expansion per resume; the parent of the
PR that claimed runs under one lease wrote a lease and started a heartbeat
thread per cell (``1 + 2·cells`` writes).

The document a pass ends with is written by ``document_json``: the gate
below pins its bytes to stdlib's ``json.dumps(indent=2, sort_keys=True)``
and the Python calls it makes (``sys.setprofile`` call events) to at most
one per container plus one per float, bool or None value.  Stdlib's
generator-based encoder resumes a generator once per value or more
(465,899 call events on the 200-cell document, against 5,504; the test
prints both).
"""

import json
import os
import sys
import threading

import pytest

from repro.cluster import ClusterWorker, FileQueue, SweepCoordinator
from repro.cluster import cache as cache_module
from repro.cluster import fsqueue as fsqueue_module
from repro.cluster import manifest as manifest_module
from repro.experiments import SweepRunner, default_flood_spec
from repro.experiments import sweep as sweep_module

BASE = dict(duration=0.5, attack_pps=200.0, legit_pps=100.0)
GRID_12 = {"defense.backend": ["aitf", "pushback", "none"],
           "workloads.1.params.rate_pps": [150.0, 300.0],
           "seed": [1, 2]}
GRID_4 = {"defense.backend": ["aitf", "none"], "seed": [1, 2]}


class WorkCounters:
    """Counts calls to the named module-level functions, wherever the
    cluster modules imported them to, and to a few methods."""

    COUNTED = {
        "write_json_atomic": (fsqueue_module, cache_module, manifest_module),
        "read_json": (fsqueue_module, cache_module, manifest_module),
        "expand_grid": (sweep_module, manifest_module),
    }
    METHODS = {
        "lease": (FileQueue, "heartbeat"),
        "thread": (threading.Thread, "start"),
        "worker_run": (ClusterWorker, "run"),
    }

    def __init__(self, monkeypatch, cluster_dir):
        self.calls = dict.fromkeys(
            [*self.COUNTED, *self.METHODS, "listdir", "rename"], 0)
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
        for function in ("rename", "replace", "link"):
            monkeypatch.setattr(os, function, self._moving(
                cluster_dir, getattr(os, function)))

    def _counting(self, name, function):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted

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
    assert cold_work["write_json_atomic"] <= 1 + cells + leases, cold_work
    # Each marker moves twice (claim, done); each write is one rename/link.
    assert cold_work["rename"] <= 2 * cells + cold_work["write_json_atomic"], \
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
    assert warm_work["write_json_atomic"] == 0, warm_work
    assert warm_work["expand_grid"] == 0, warm_work
    # run.json, then each cache entry once (the one that is merged).
    assert warm_work["read_json"] <= 1 + cells, warm_work
    assert warm_work["listdir"] <= cold_work["listdir"], (warm_work, cold_work)


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


def value_counts(value, counts):
    """Tally ``value``'s containers and its float, bool and None leaves."""
    if isinstance(value, (dict, list)):
        counts["containers"] += 1
        for item in (value.values() if isinstance(value, dict) else value):
            value_counts(item, counts)
    elif value is None or isinstance(value, (bool, float)):
        counts["scalars"] += 1
    return counts


def test_the_sweep_document_is_stdlibs_text_in_a_call_per_container():
    """A cold 200-cell grid shaped like the ``sweep_warm`` bench workload
    (5 defenses x 8 rates x 5 seeds, train engine, 2 s)."""
    base = default_flood_spec(duration=2.0, attack_pps=5000.0).with_overrides({
        "engine.mode": "train", "sample_occupancy": False,
        "topology.params.extra_good_hosts": 1,
        "defense.params.non_cooperating": ["B_host"]})
    grid = {"defense.backend": ["aitf", "pushback", "ingress-dpf", "manual",
                                "none"],
            "workloads.1.params.rate_pps": [500.0, 1000.0, 1500.0, 2000.0,
                                            3000.0, 4000.0, 5000.0, 6000.0],
            "seed": [1, 2, 3, 4, 5]}
    sweep = SweepRunner().run_grid(base, grid)
    document = sweep.to_dict()
    assert len(document["cells"]) == 200

    text, calls = python_calls(sweep.to_json)
    stdlib_text, stdlib_calls = python_calls(
        lambda: json.dumps(document, indent=2, sort_keys=True))
    assert text == stdlib_text
    counts = value_counts(document, {"containers": 0, "scalars": 0})
    print(f"\nsweep document: {len(text)} bytes, {counts['containers']} "
          f"containers, {counts['scalars']} float/bool/None values; "
          f"Python call events: document_json {calls}, stdlib {stdlib_calls}")
    assert calls <= counts["containers"] + counts["scalars"], (calls, counts)
