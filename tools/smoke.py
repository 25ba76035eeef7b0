#!/usr/bin/env python3
"""End-to-end smoke checks of the ``repro`` CLI, one table entry each.

    PYTHONPATH=src python tools/smoke.py [ENTRY ...]   # no ENTRY: all
    PYTHONPATH=src python tools/smoke.py --list        # the entry names

An entry is a list of steps run in its own directory, ``smoke-out/ENTRY``
under the repository root (emptied first), where everything it writes
stays for inspection or upload.  A step is a command line (``repro ...``
and ``python ...`` run under this interpreter, ``{repo}`` is the
repository root, a trailing ``> FILE`` keeps stdout in FILE) or a check
function; a command fails its entry by exiting non-zero.  The checks
assert only what no tier-1 test does: the tier-1 suite (``pytest -x -q``)
owns E1-E11, byte identity across worker counts and packet/train parity,
and no entry re-runs it.  The exit status is the number of failed entries.
"""

import argparse
import contextlib
import glob
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUT = os.path.join(REPO, "smoke-out")
SPECS = "{repo}/examples/specs"
GRIDS = SPECS + "/grids"
COUNTERS = "python {repo}/tools/bench_counters.py"
CLUSTER_GRID = ("--param defense.backend=aitf,pushback "
                "--param workloads.1.params.rate_pps=1500,3000 --duration 3")
REDTEAM = f"--spec {SPECS}/redteam_quick.json --quick"


def run(command, out):
    """Run one command line in ``out``; raise if it exits non-zero."""
    command, _, stdout = command.format(repo=REPO).partition(" > ")
    argv = shlex.split(command)
    head = {"repro": [sys.executable, "-m", "repro"],
            "python": [sys.executable]}.get(argv[0], argv[:1])
    print("$", command + (f" > {stdout}" if stdout else ""), flush=True)
    with open(os.path.join(out, stdout), "w") if stdout else \
            contextlib.nullcontext() as handle:
        subprocess.run(head + argv[1:], cwd=out, env=_env(), check=True,
                       stdout=handle)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    return env


def _load(out, name):
    with open(os.path.join(out, name)) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# checks no tier-1 test makes
# ----------------------------------------------------------------------
def rows_held(out):
    """What the routers of the committed hier_churn cell end up holding:
    rows, routers with any, (router, anchor) pairs that asked, and how many
    routers own each per-node container (the rest share its empty
    constant)."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.experiments import ExperimentRunner, ExperimentSpec
    from repro.router.nodes import SHARED_UNTIL_WRITTEN, private_containers

    spec = ExperimentSpec.load(os.path.join(REPO, "bench", "workloads",
                                            "hier_churn.json"))
    execution = ExperimentRunner().prepare(spec)
    execution.run()
    topology = execution.handle.topology
    routers = topology.border_routers()
    rows = [router.routing.row_count() for router in routers]
    owners = dict.fromkeys((path for path, _ in SHARED_UNTIL_WRITTEN), 0)
    for router in routers:
        for path in private_containers(router):
            owners[path] += 1
    print("hier_churn", {
        "rows_held": sum(rows),
        "routers_holding_rows": sum(1 for count in rows if count),
        "holders": sum(map(len, topology.policy.askers.values())),
        "routers": len(routers), "routers_owning": owners})


def trace_rows_held(out):
    """What a trace holds per record: records, bodies stored (a link
    delivery's or a filter block's once, however often it repeats) and the
    bytes per record tracemalloc sees the store give back when emptied,
    for fig1_observed and for fleet_train with every channel on for 1 s."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    import dataclasses

    from repro.experiments import OBSERVE_CHANNELS, ExperimentSpec, ObserveSpec
    from repro.obs.trace import store_footprint

    def load(name):
        return ExperimentSpec.load(os.path.join(REPO, "bench", "workloads",
                                                f"{name}.json"))

    fleet = dataclasses.replace(load("fleet_train").with_overrides(
        {"duration": 1.0}), observe=ObserveSpec(channels=OBSERVE_CHANNELS))
    for name, spec in (("fig1_observed", load("fig1_observed")),
                       ("fleet_train", fleet)):
        footprint = store_footprint(spec)
        footprint["bytes_per_record"] = round(footprint["bytes_per_record"], 1)
        print(name, footprint)


def modules_loaded(out):
    """How many ``repro`` modules a fresh interpreter loads to prepare, run
    and serialise the ``fig1_packet`` cell at a 1 s horizon (prints only;
    ``benchmarks/test_bench_setup_work.py`` pins the set)."""
    path = os.path.join(REPO, "bench", "workloads", "fig1_packet.json")
    script = (
        "import json, sys\n"
        "from repro.experiments import ExperimentRunner, ExperimentSpec\n"
        f"spec = ExperimentSpec.load({path!r})\n"
        "result = ExperimentRunner().run(spec.with_overrides({'duration': 1.0}))\n"
        "json.dumps(result.to_dict())\n"
        "print(sum(1 for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')))")
    loaded = subprocess.run([sys.executable, "-c", script], cwd=out,
                            env=_env(), check=True, capture_output=True,
                            text=True).stdout.split()[-1]
    print("fig1_packet repro modules loaded:", loaded)


def resume_after_killing_a_worker(out):
    """Two workers drain the queue; one is killed by SIGKILL as soon as the
    first cell is done (so partway, holding a lease), and the coordinator
    resumes the run to ``cluster.json``."""
    argv = [sys.executable, "-m", "repro", "worker", "--cluster", "q",
            "--lease", "3", "--idle-timeout", "60"]
    done = os.path.join(out, "q", "tasks", "done")
    cells = len(_load(os.path.join(out, "q"), "run.json")["cells"])
    workers = [subprocess.Popen(argv, cwd=out, env=_env()) for _ in range(2)]
    try:
        deadline = time.monotonic() + 120
        while not os.listdir(done) and time.monotonic() < deadline:
            time.sleep(0.01)
        finished = len(os.listdir(done))
        assert workers[0].poll() is None and 0 < finished < cells, (
            f"no mid-run kill: {finished}/{cells} cells done")
        workers[0].send_signal(signal.SIGKILL)
        print(f"killed worker {workers[0].pid} with {finished}/{cells} "
              "cells done", flush=True)
        run(f"repro sweep {CLUSTER_GRID} --cluster q --resume --lease 3 "
            "--timeout 300 --output cluster.json", out)
        workers[1].wait(timeout=120)
    finally:
        for worker in workers:
            worker.kill()
            worker.wait()


def resumed_run_is_all_cache_hits_and_left_nothing(out):
    cells = len(_load(out, "cluster2.json")["cells"])
    cache = _load(out, "cluster2.provenance.json")["cache"]
    assert cache == {"hits": cells, "misses": 0}, cache
    for directory in ("leases", "tasks/leased", "tmp"):
        left = os.listdir(os.path.join(out, "q", directory))
        assert not left, f"q/{directory} is not empty: {left}"
    print(f"{cells}/{cells} cache hits; no lease, leased marker or temp file")


def same_bytes(first, second):
    def check(out):
        with open(os.path.join(out, first), "rb") as a, \
                open(os.path.join(out, second), "rb") as b:
            assert a.read() == b.read(), f"{first} and {second} differ"
        print(f"{first} == {second}")
    return check


def is_stdlibs_text(name):
    """The sweep document ``name`` is, byte for byte, what stdlib's sorted,
    indented encoder writes for its own contents."""
    def check(out):
        with open(os.path.join(out, name)) as handle:
            text = handle.read()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n", \
            f"{name} differs from json.dumps(indent=2, sort_keys=True)"
        print(f"{name} == json.dumps(indent=2, sort_keys=True) "
              f"({len(text)} bytes)")
    return check


def search_found_a_collapse(out):
    doc = _load(out, "search.json")
    assert doc["collapse_cells"], "the quick search found no collapse cell"
    print(f"{len(doc['collapse_cells'])} collapse cell(s) among "
          f"{len(doc['cells'])} evaluated")


def committed_topologies_have_their_shape(out):
    hierarchy = _load(out, "topo-hierarchy.json")
    assert hierarchy["tiers"]["stub"] > 800, hierarchy["tiers"]
    powerlaw = _load(out, "topo-powerlaw.json")
    assert powerlaw["routing_entries"] > 0, powerlaw
    print(f"hierarchy {hierarchy['tiers']}; powerlaw "
          f"{powerlaw['routing_entries']} routes for the victim anchor")


def failover_grid_train_within_tolerance(out):
    """The stated engine tolerances (5 % aggregate, 0.5-2x per class) on
    every cell of the committed failover grid."""
    packet = _load(out, "churn-packet.json")["cells"]
    train = _load(out, "churn-train.json")["cells"]
    assert packet and len(packet) == len(train)
    for p, t in zip(packet, train):
        assert p["overrides"]["faults"] == t["overrides"]["faults"]
        pr, tr = p["result"], t["result"]
        agg_p = pr["attack_received_bps"] + pr["legit_goodput_bps"]
        agg_t = tr["attack_received_bps"] + tr["legit_goodput_bps"]
        assert abs(agg_t - agg_p) / agg_p <= 0.05, (agg_p, agg_t)
        for key in ("attack_received_bps", "legit_goodput_bps"):
            want, got = pr[key], tr[key]
            assert want > 0 and 0.5 <= got / want <= 2.0, (key, want, got)
    print(f"{len(packet)} failover cells: train within tolerance of packet")


def deployment_grid_separates_the_loci(out):
    """All-AS deployment delivers 4.99x (within 5 %) the victim-stub share
    of legitimate traffic on the quick packet-engine cells (0.967 / 0.194).
    It is the ratio ``tests/test_hierarchy.py::LOCUS_SEPARATION`` pins
    (5.39x on that test's seed-11 cell); the sweep derives each cell's
    seed from its overrides, hence the different figure."""
    cells = _load(out, "deploy-quick.json")["cells"]
    by_locus = {cell["overrides"]["defense.params.deployment"]:
                cell["result"]["legit_delivery_ratio"] for cell in cells}
    assert by_locus["all"] > 0.7 and by_locus["victim-stub"] < 0.5, by_locus
    separation = by_locus["all"] / by_locus["victim-stub"]
    assert abs(separation / 4.99 - 1) <= 0.05, (separation, by_locus)
    print("locus separation:", {k: round(v, 2) for k, v in by_locus.items()},
          f"all / victim-stub {separation:.2f}x")


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def _experiment_specs():
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "specs",
                                              "*.json"))):
        with open(path) as handle:
            if json.load(handle).get("schema") == "experiment_spec/v1":
                yield os.path.basename(path)[:-len(".json")]


DATA_PATH = ("op_s sim_us_per_pkt events_per_kpkt sim.calls net.calls "
             "router.calls router.self_s attacks.calls analysis.self_s "
             "model.xengine_err")
REROUTE = ("--prefix faults. --prefix routing_policy. phase.build_s "
           "phase.faults_init_s phase.reroute_s")

ENTRIES = {
    # Every example script, and every committed experiment spec on a
    # 2 s horizon (redteam_quick.json is a red-team spec: see redteam).
    "examples": [
        *(f"python {{repo}}/examples/{os.path.basename(path)}"
          for path in sorted(glob.glob(os.path.join(REPO, "examples",
                                                    "*.py")))),
        *(f"repro --json run --spec {SPECS}/{name}.json --duration 2 "
          f"> run-{name}.json" for name in _experiment_specs()),
    ],
    # Each bench workload once (untraced: end-to-end metrics; traced:
    # per-layer counters), printing the counters reviewers read on every
    # change.  Gates only on a wrong result, never on time.
    "counters": [
        f"{COUNTERS} fig1_packet --both {DATA_PATH} setup_s",
        modules_loaded,
        f"{COUNTERS} fleet_train --both {DATA_PATH} setup_s peak_rss_mb "
        "phase.build_s dep.networkx_s py.gc_collections",
        f"{COUNTERS} hier_churn --both {REROUTE} phase.materialize_s py.gc_s "
        "py.gc_collections py.gc_gen2 setup_s op_s sim_us_per_pkt "
        "peak_rss_mb events_per_kpkt",
        f"{COUNTERS} fleet_churn --traced {REROUTE}",
        f"{COUNTERS} fig1_observed --both obs.overhead_x obs.self_s "
        "obs.calls obs.trace_records py.gc_collections peak_rss_mb",
        rows_held,
        trace_rows_held,
    ],
    # A sweep run by worker processes over a shared queue directory, one
    # of them killed by SIGKILL partway; the resumed merge must equal the
    # serial document and stdlib's text for its contents, and a second
    # resume must be all cache hits, leave no lease, leased marker or temp
    # file, and splice (from cached result texts alone) the same bytes.
    "cluster": [
        f"repro sweep {CLUSTER_GRID} --output serial.json",
        f"repro sweep {CLUSTER_GRID} --cluster q --enqueue-only",
        resume_after_killing_a_worker,
        same_bytes("serial.json", "cluster.json"),
        is_stdlibs_text("cluster.json"),
        f"repro sweep {CLUSTER_GRID} --cluster q --resume --timeout 300 "
        "--output cluster2.json",
        resumed_run_is_all_cache_hits_and_left_nothing,
        same_bytes("serial.json", "cluster2.json"),
        is_stdlibs_text("cluster2.json"),
    ],
    # Search, repair and verify on the committed quick spec.  `repair`
    # exits 1 unless every collapse cell has a verified repair, `verify`
    # unless the replay matches and is >= 90 % cache hits.
    "redteam": [
        f"repro redteam search {REDTEAM} --cache cells --output search.json",
        f"repro redteam search {REDTEAM} --workers 2 "
        "--output search-workers2.json",
        same_bytes("search.json", "search-workers2.json"),
        search_found_a_collapse,
        f"repro redteam repair {REDTEAM} --search search.json --cache cells "
        "--output repair.json",
        f"repro redteam verify {REDTEAM} --search search.json "
        "--report repair.json --cache cells --min-hit-rate 0.9",
    ],
    # The documents CI keeps from every change: topology summaries, the
    # committed churn / deployment / exhaustion grids with their reports
    # and figures, and flight-recorder traces on both engines.
    "artifacts": [
        "repro --json topo --name hierarchy --set autonomous_systems=1000 "
        "> topo-hierarchy.json",
        "repro --json topo --name powerlaw > topo-powerlaw.json",
        committed_topologies_have_their_shape,
        f"repro sweep --request {GRIDS}/failover.json --quick "
        "--output churn-packet.json",
        f"repro sweep --request {GRIDS}/failover.json --quick "
        "--set engine.mode=train --set engine.max_train=32 "
        "--output churn-train.json",
        failover_grid_train_within_tolerance,
        "repro report churn-packet.json --output churn-report.md "
        "--csv churn-cells.csv",
        "repro report churn-packet.json --plot "
        f"--figures-dir churn-figures --request {GRIDS}/failover.json",
        f"repro sweep --request {GRIDS}/partial_deployment.json --quick "
        "--output deploy-quick.json",
        deployment_grid_separates_the_loci,
        "repro report deploy-quick.json --output deploy-report.md "
        "--csv deploy-cells.csv",
        "repro report deploy-quick.json --plot "
        "--figures-dir deploy-figures "
        f"--request {GRIDS}/partial_deployment.json",
        f"repro sweep --request {GRIDS}/redteam_exhaustion.json --quick "
        "--output redteam-grid.json",
        "repro report redteam-grid.json --plot "
        "--figures-dir redteam-figures "
        f"--request {GRIDS}/redteam_exhaustion.json",
        f"repro trace record --spec {SPECS}/flood_aitf.json "
        "--output trace-packet.jsonl",
        f"repro trace record --spec {SPECS}/flood_aitf.json "
        "--set engine.mode=train --output trace-train.jsonl",
        "repro trace record --attack-pps 200 --legit-pps 100 --duration 3 "
        "--output parity-packet.jsonl",
        "repro trace record --attack-pps 200 --legit-pps 100 --duration 3 "
        "--set engine.mode=train --output parity-train.jsonl",
    ],
}


def run_entry(name):
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for step in ENTRIES[name]:
        if callable(step):
            step(out)
        else:
            run(step, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("entries", nargs="*", metavar="ENTRY")
    parser.add_argument("--list", action="store_true",
                        help="print the entry names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(ENTRIES))
        return 0
    unknown = [name for name in args.entries if name not in ENTRIES]
    if unknown:
        parser.error(f"unknown entry {unknown[0]!r} "
                     f"(choose from {', '.join(ENTRIES)})")
    failed, times = [], {}
    for name in args.entries or ENTRIES:
        print(f"== {name}", flush=True)
        started = time.perf_counter()
        try:
            run_entry(name)
        except (AssertionError, subprocess.CalledProcessError) as error:
            print(f"FAILED {name}: {error!r}", flush=True)
            failed.append(name)
        times[name] = time.perf_counter() - started
    for name, seconds in times.items():
        print(f"{name:10} {'FAILED' if name in failed else 'ok':6} "
              f"{seconds:6.1f} s")
    return len(failed)


if __name__ == "__main__":
    sys.exit(main())
