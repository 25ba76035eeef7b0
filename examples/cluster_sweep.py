#!/usr/bin/env python3
"""Distributed sweep demo: two workers, one queue directory, zero recompute.

Runs the same four-cell sweep three ways and shows the cluster guarantees:

1. serially, in this process (the reference document);
2. distributed — two ``repro worker`` subprocesses drain a shared queue
   directory while the coordinator merges; the merged document is
   **byte-identical** to the serial one;
3. resumed — the identical sweep submitted again finishes instantly with
   100% cell-cache hits (no simulator runs at all).

Every piece is a plain file in the queue directory: ``run.json`` describes
the cells, empty task markers move between ``pending/``, ``leased/`` and
``done/`` by atomic rename, results live in a content-addressed cache keyed
by each cell's canonical spec hash, and the provenance sidecar records who
computed what.

    python examples/cluster_sweep.py
"""

import json
import os
import subprocess
import sys
import tempfile

from repro.cluster import SweepCoordinator
from repro.experiments import SweepRunner, default_flood_spec

GRID = {
    "defense.backend": ["aitf", "pushback"],
    "workloads.1.params.rate_pps": [1500.0, 3000.0],
}


def start_worker(cluster_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--cluster", cluster_dir,
         "--idle-timeout", "60"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def main() -> None:
    base = default_flood_spec(duration=2.0)

    print("1. serial reference sweep (one process) ...")
    serial = SweepRunner(workers=1).run_grid(base, GRID)

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as cluster_dir:
        print(f"2. distributed sweep over {cluster_dir} with two workers ...")
        coordinator = SweepCoordinator(cluster_dir)
        coordinator.submit(base, GRID)
        workers = [start_worker(cluster_dir) for _ in range(2)]
        # The two subprocess workers do all the computing: they exit when
        # the run is complete, and merge() collects what they published.
        # (coordinator.execute() would pitch in alongside them; here we
        # want to *see* fan-out.)
        for worker in workers:
            worker.wait(timeout=120)
        merged = coordinator.merge()

        identical = merged.to_json() == serial.to_json()
        print(f"   merged document byte-identical to serial: {identical}")
        assert identical
        who = {record["worker"] for record in merged.provenance["cells"]}
        print(f"   cells computed by: {', '.join(sorted(who))}")

        print("3. same sweep again (--resume): served from the cell cache ...")
        resumed = SweepCoordinator(cluster_dir).run_grid(base, GRID, resume=True)
        cache = resumed.provenance["cache"]
        print(f"   cache hits/misses: {cache['hits']}/{cache['misses']}")
        assert cache == {"hits": 4, "misses": 0}
        assert resumed.to_json() == serial.to_json()

    print("\nAlso shipped: examples/specs/*.json — per-backend flood specs for"
          "\n  repro run --spec examples/specs/flood_pushback.json"
          "\nand the committed paper grids (examples/specs/grids/*.json) for"
          "\n  repro sweep --request examples/specs/grids/onoff_evasion.json"
          "\n  repro paper --quick")
    with open(os.path.join(os.path.dirname(__file__),
                           "specs", "grids", "onoff_evasion.json")) as handle:
        request = json.load(handle)
    print(f"  e.g. {request['name']!r}: base spec "
          f"{request['base_spec']['name']!r}, "
          f"axes: {', '.join(request['grid'])}")


if __name__ == "__main__":
    main()
