"""Sweep-executor work gate: the queue's bookkeeping stays in proportion.

Clock-free, like the tracing gate next door — counts, never wall-clock.  A
coordinator pass over a grid in a scratch directory is wrapped in call
counters on the file primitives every cluster module goes through
(``write_json_atomic``, ``read_json``, ``os.listdir``) and on
``expand_grid``:

* a **cold** pass writes the manifest once, then one lease and one cache
  entry per cell — task files are empty markers, nothing describes a cell
  twice — and lists directories a number of times that does not depend on
  the size of the grid (claims walk a remembered listing; completion is
  checked when a claim comes back empty, not before each one);
* a **resumed warm** pass writes nothing, expands nothing (the stored
  manifest is compared by identity first and is the authority), and reads
  the manifest plus each cache entry once — the entry read at submit is
  the one merged.

The parent of the PR that added this gate sat at three writes per cell, two
reads per cached cell and one full expansion per resume.
"""

import os

import pytest

from repro.cluster import SweepCoordinator
from repro.cluster import cache as cache_module
from repro.cluster import fsqueue as fsqueue_module
from repro.cluster import manifest as manifest_module
from repro.experiments import default_flood_spec
from repro.experiments import sweep as sweep_module

BASE = dict(duration=0.5, attack_pps=200.0, legit_pps=100.0)
GRID_12 = {"defense.backend": ["aitf", "pushback", "none"],
           "workloads.1.params.rate_pps": [150.0, 300.0],
           "seed": [1, 2]}
GRID_4 = {"defense.backend": ["aitf", "none"], "seed": [1, 2]}


class WorkCounters:
    """Counts calls to the named module-level functions, wherever the
    cluster modules imported them to."""

    COUNTED = {
        "write_json_atomic": (fsqueue_module, cache_module, manifest_module),
        "read_json": (fsqueue_module, cache_module, manifest_module),
        "expand_grid": (sweep_module, manifest_module),
    }

    def __init__(self, monkeypatch, cluster_dir):
        self.calls = dict.fromkeys([*self.COUNTED, "listdir"], 0)
        for name, modules in self.COUNTED.items():
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, self._counting(name, getattr(module, name)))
        real_listdir = os.listdir

        def listdir(path="."):
            if str(path).startswith(cluster_dir):
                self.calls["listdir"] += 1
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)

    def _counting(self, name, function):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted

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
    # The manifest, then a lease and a cache entry per cell.
    assert cold_work["write_json_atomic"] <= 1 + 2 * cells, cold_work
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
