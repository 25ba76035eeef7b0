"""Run the benchmark.

Driver form (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's input from the seed, repeats the op in fresh child
processes for about S seconds, checks the outputs, prints every metric by
name with its unit and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` one profiled child and the per-layer metrics.

Without ``--workload`` it does both for every workload (about four
minutes); ``--out FILE`` keeps the numbers, ``--record`` writes them, and
with them the pinned result digests, to ``bench/baseline.json``.  ``--quick``
is a smoke run of well under a minute (one rep, short horizons) whose
numbers are never recorded.  ``--compare A.json B.json`` reads two
``--out`` files and prints, per workload and end-to-end metric, both
values, the relative difference, the bound and the spread of the reps
behind them.  Exit status is non-zero when any check fails.

One child runs at a time and the parent runs no threads, so load comes
from a single process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import metrics  # noqa: E402
from gen_workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from layers import DEP_NETWORKX, LAYERS, PY_BUILTIN, PY_OTHER  # noqa: E402

CHILD_TIMEOUT_S = 60
MIN_REPS, MAX_REPS = 4, 9
#: Horizon of the cross-engine check on fleet_train (the packet engine on
#: the full horizon would take longer than the whole run).
FLEET_XENGINE_HORIZON = 1.0
#: Resumed passes per sweep_warm child.
WARM_PASSES = 12
BASELINE_PATH = os.path.join(BENCH_DIR, "baseline.json")


def child_mode(workload: str) -> str:
    return workload if workload.startswith("sweep_") else "run"


class Bench:
    """One invocation's scratch directory, child launcher and tallies."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        self.attempted = 0
        self.failures: List[str] = []
        self._serial = 0
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> "Bench":
        os.makedirs(self.work, exist_ok=True)
        # Parent and children share one CPU (they never run at once), so
        # the calibration reads the CPU the op ran on.  This box's two
        # vCPUs change speed independently (correlation 0.1): unpinned, a
        # run whose parent sat on the slow one while its children ran on
        # the fast one normalised 1.4 s ops to 1.1 s.
        os.sched_setaffinity(0, {max(self._cpus)})
        return self

    def __exit__(self, *exc: Any) -> None:
        os.sched_setaffinity(0, self._cpus)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another invocation's directory is still there

    @contextlib.contextmanager
    def all_cpus(self) -> Iterator[None]:
        """Unpinned, for the one check that needs more than one CPU."""
        os.sched_setaffinity(0, self._cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {max(self._cpus)})

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def _python(self, script: str, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)

    def generate(self, workload: str, seed: int) -> str:
        """Write the workload's input for ``seed``; returns its path.  A
        subprocess, so the topology it builds to pick fault links never
        sits in this process's heap while it calibrates."""
        out = os.path.join(self.work, "inputs")
        args = ["--seed", str(seed), "--out", out, "--workload", workload]
        if self.quick:
            args.append("--quick")
        done = self._python("gen_workloads.py", *args)
        if done.returncode != 0:
            raise RuntimeError(f"gen_workloads failed:\n{done.stderr}")
        return os.path.join(out, f"{workload}.json")

    def child(self, mode: str, input_path: str, *extra: str,
              trace: bool = False) -> Optional[Dict[str, Any]]:
        """One op in a fresh process; None (and a failure) if it broke."""
        self.attempted += 1
        self._serial += 1
        work = os.path.join(self.work, f"child{self._serial}")
        os.makedirs(work)
        label = " ".join((mode, os.path.basename(input_path), *extra))
        start = time.perf_counter()
        try:
            done = self._python(
                "child.py", "--mode", mode, "--input", input_path,
                "--work", work, "--trace", "1" if trace else "0",
                "--warm-passes", str(3 if self.quick else WARM_PASSES),
                *extra)
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: timed out after {CHILD_TIMEOUT_S}s")
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            self.fail(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return None
        record = json.loads(done.stdout.strip().splitlines()[-1])
        record["wall_s"] = wall
        for violation in record["violations"]:
            self.fail(f"{label}: {violation}")
        return record


def pinned_mismatch(bench: Bench, workload: str, seed: int,
                    record: Dict[str, Any]) -> int:
    """Compare against the recorded default-seed digest and packet count.
    Loud but not a failure: a change that legitimately moves the model
    re-records ``baseline.json`` and says so."""
    if seed != DEFAULT_SEED or bench.quick or \
            not os.path.exists(BASELINE_PATH):
        return 0
    with open(BASELINE_PATH) as handle:
        pinned = json.load(handle)["workloads"].get(workload)
    if pinned is None:
        return 0
    mismatch = 0
    for key in ("digest", "pkts"):
        if record[key] != pinned[key]:
            mismatch = 1
            print(f"WARNING: {workload} {key} {record[key]} differs from "
                  f"the recorded {pinned[key]} (bench/baseline.json)",
                  file=sys.stderr)
    return mismatch


def relative_difference(a: Optional[float], b: Optional[float]) -> float:
    if a is None or b is None:
        return 0.0 if a is b else 1.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


class Rep:
    """A child record with the calibrations taken around it."""

    def __init__(self, record: Dict[str, Any], before: float,
                 after: float) -> None:
        self.record = record
        self.before, self.after = before, after

    def norm(self, seconds: float) -> float:
        return calibrate.normalise(seconds, self.before, self.after)

    @property
    def sim_us_per_pkt(self) -> float:
        return self.norm(self.record["sim_s"]) / self.record["pkts"] * 1e6


def timed_child(bench: Bench, mode: str, input_path: str, *extra: str,
                trace: bool = False) -> Optional[Rep]:
    before = calibrate.calibrate()
    record = bench.child(mode, input_path, *extra, trace=trace)
    after = calibrate.calibrate()
    return Rep(record, before, after) if record is not None else None


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------
#: End-to-end metric -> its value for one rep.
PER_REP: Dict[str, Callable[[Rep], float]] = {
    "setup_s": lambda rep: rep.norm(rep.record["setup_s"]),
    "op_s": lambda rep: rep.norm(rep.record["op_s"]),
    "sim_us_per_pkt": lambda rep: rep.sim_us_per_pkt,
    "events_per_kpkt": lambda rep: (rep.record["events"]
                                    / rep.record["pkts"] * 1000.0),
    "peak_rss_mb": lambda rep: rep.record["rss_kb"] / 1024.0,
}


def run_end_to_end(bench: Bench, workload: str, seed: int,
                   seconds: float) -> Dict[str, Any]:
    """Repeat the op for about ``seconds``: metric -> one value per rep,
    plus what every rep agreed on (``digest``, ``pkts``)."""
    input_path = bench.generate(workload, seed)
    mode = child_mode(workload)
    reps: List[Rep] = []
    cals = [calibrate.calibrate()]
    start = time.perf_counter()
    launched = 0
    while True:
        record = bench.child(mode, input_path)
        cals.append(calibrate.calibrate())
        launched += 1
        if record is not None:
            reps.append(Rep(record, cals[-2], cals[-1]))
        elapsed = time.perf_counter() - start
        if bench.quick or launched >= MAX_REPS:
            break
        # Another rep only if it is expected to end near the deadline.
        if launched >= MIN_REPS and \
                elapsed + elapsed / launched > 1.1 * seconds:
            break
    if not reps:
        raise RuntimeError(f"{workload}: no child completed")

    first = reps[0].record
    for rep in reps[1:]:
        for key in ("digest", "pkts", "events"):
            if rep.record[key] != first[key]:
                bench.fail(f"{workload}: reps disagree on {key} "
                           f"({first[key]} vs {rep.record[key]})")
    pinned_mismatch(bench, workload, seed, first)

    # Diagnostics: never gate, shown so a reader can see the host.
    raw = [rep.record["op_s"] for rep in reps]
    print(f"# {workload}: n={len(reps)} reps, raw op user-CPU "
          f"{min(raw):.3f}..{max(raw):.3f} s, calibration "
          f"{min(cals):.3f}..{max(cals):.3f} s "
          f"(ref {calibrate.CAL_REF_S} s), pkts {first['pkts']}, "
          f"events {first['events']}, digest {first['digest'][:12]}")
    return {"reps": {name: [value(rep) for rep in reps]
                     for name, value in PER_REP.items()},
            "digest": first["digest"], "pkts": first["pkts"]}


def summarise(per_rep: Dict[str, List[float]]) -> Dict[str, float]:
    """Median over the reps; memory is the largest any rep needed."""
    values = {name: statistics.median(reps) for name, reps in per_rep.items()}
    values["peak_rss_mb"] = max(per_rep["peak_rss_mb"])
    return values


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------
def cross_engine_error(bench: Bench, workload: str, input_path: str,
                       plain: Rep) -> float:
    """Largest relative difference, over the uniform statistics, between
    the packet and the train engine on the same spec and horizon."""
    if workload == "fig1_packet":
        other = bench.child("run", input_path, "--engine", "train")
        pair = (plain.record, other)
    elif workload == "fleet_train":
        horizon = ["--duration", str(FLEET_XENGINE_HORIZON)]
        pair = (bench.child("run", input_path, "--engine", "train", *horizon),
                bench.child("run", input_path, "--engine", "packet",
                            *horizon))
    else:
        return 0.0
    if pair[0] is None or pair[1] is None:
        return 0.0
    return max(relative_difference(pair[0]["stats"][key],
                                   pair[1]["stats"][key])
               for key in pair[0]["stats"])


def run_per_layer(bench: Bench, workload: str, seed: int
                  ) -> Dict[str, float]:
    input_path = bench.generate(workload, seed)
    mode = child_mode(workload)
    plain = timed_child(bench, mode, input_path)
    traced = timed_child(bench, mode, input_path, trace=True)
    if plain is None or traced is None:
        raise RuntimeError(f"{workload}: traced run did not complete")
    record = traced.record
    if record["digest"] != plain.record["digest"]:
        bench.fail(f"{workload}: traced and untraced digests differ")

    values = dict.fromkeys(metrics.PER_LAYER_NAMES, 0.0)
    profile = record["profile"]
    total = profile["total_s"]
    buckets = profile["buckets"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = traced.norm(buckets[layer]["self_s"])
        values[f"{layer}.calls"] = buckets[layer]["calls"]
        values[f"{layer}.share"] = buckets[layer]["self_s"] / total
    values["py.builtin_s"] = traced.norm(buckets[PY_BUILTIN]["self_s"])
    values["py.builtin_calls"] = buckets[PY_BUILTIN]["calls"]
    values["py.other_s"] = traced.norm(buckets[PY_OTHER]["self_s"])
    values["dep.networkx_s"] = traced.norm(buckets[DEP_NETWORKX]["self_s"])
    values["py.gc_s"] = traced.norm(record["gc_s"])
    values["py.gc_collections"] = record["gc"]["collections"]
    values["py.gc_gen2"] = record["gc"]["gen2"]
    for name, seconds in {**profile["phases"], **record["phases"]}.items():
        values[name] = traced.norm(seconds)
    values.update(record["counters"])
    checked = values["router.pkts_checked"]
    values["router.block_ratio"] = (
        values["router.pkts_blocked"] / checked if checked else 0.0)

    cells = record["cells"]
    values["experiments.cells"] = cells
    values["experiments.result_bytes"] = record["result_bytes"]
    values["experiments.digest_mismatch"] = pinned_mismatch(
        bench, workload, seed, plain.record)
    cache = record.get("cache")
    if cache is not None:
        values["cluster.cache_hits"] = cache["hits"]
        values["cluster.cache_misses"] = cache["misses"]
        values["cluster.cache_bytes"] = cache["bytes"]
    if workload == "sweep_cold":
        values["experiments.cell_ms"] = \
            plain.norm(plain.record["op_s"]) / cells * 1e3
        with bench.all_cpus():
            par2 = bench.child("par2", input_path)
        if par2 is not None:
            values["experiments.par2_wall_ratio"] = par2["par2_wall_ratio"]
            if par2["digest"] != plain.record["digest"]:
                bench.fail("sweep_cold: SweepRunner and SweepCoordinator "
                           "documents differ")
    if workload == "sweep_warm":
        values["cluster.warm_cell_us"] = \
            plain.norm(plain.record["op_s"]) / cells * 1e6
    if workload == "fig1_observed":
        untapped = timed_child(bench, mode, input_path, "--no-observe")
        if untapped is not None:
            values["obs.overhead_x"] = \
                plain.sim_us_per_pkt / untapped.sim_us_per_pkt

    stats = plain.record["stats"]
    if stats:
        values["model.ttfb_s"] = stats["time_to_first_block"] or 0.0
        values["model.legit_delivery"] = stats["legit_delivery_ratio"]
        values["model.attack_received_bps"] = stats["attack_received_bps"]
        values["model.effective_bw_ratio"] = stats["effective_bandwidth_ratio"]
    values["model.xengine_err"] = cross_engine_error(
        bench, workload, input_path, plain)

    cals = (plain.before, plain.after, traced.before, traced.after)
    values["host.cal_s"] = statistics.median(cals)
    values["host.cal_spread"] = (max(cals) - min(cals)) / values["host.cal_s"]
    values["host.op_cpu_s_raw"] = plain.record["op_s"]
    values["host.op_sys_s"] = plain.record["sys_s"]
    values["host.op_wall_s"] = plain.record["wall_s"]
    values["host.nproc"] = os.cpu_count() or 1
    # Whole-op CPU, traced over untraced: how far traced seconds are from
    # real ones.  (sweep_warm: per resumed pass.)
    values["trace.overhead_x"] = (traced.norm(record["op_s"])
                                  / plain.norm(plain.record["op_s"]))
    values["trace.total_s"] = traced.norm(total)
    partition = sum(values[f"{layer}.self_s"] for layer in LAYERS) + \
        values["py.builtin_s"] + values["py.other_s"] + \
        values["dep.networkx_s"]
    values["trace.closure_err"] = \
        abs(partition - values["trace.total_s"]) / values["trace.total_s"]
    if values["trace.closure_err"] > 0.01:
        bench.fail(f"{workload}: layer buckets miss the profiled total by "
                   f"{values['trace.closure_err']:.2%}")
    return values


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_metrics(workload: str, values: Dict[str, float]) -> None:
    for name, value in values.items():
        print(f"{workload:14s} {name:40s} {value!r:>24} {metrics.UNITS[name]}")


def result_line(bench: Bench, values: Dict[str, float],
                names: Sequence[str]) -> str:
    """The driver's JSON line; refuses a metric set that is not exactly
    what ``BENCHMARK.json`` declares."""
    if list(values) != list(names):
        raise RuntimeError("metrics emitted differ from the contract: "
                           f"{sorted(set(values) ^ set(names))}")
    return json.dumps({
        "correct": not bench.failures,
        "attempted": max(1, bench.attempted),
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    })


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(bench: Bench, seed: int, seconds: float) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "schema": "bench_results/v1",
        "seed": seed,
        "run_seconds": seconds,
        "quick": bench.quick,
        "cal_ref_s": calibrate.CAL_REF_S,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        untraced = run_end_to_end(bench, workload, seed, seconds)
        end_to_end = summarise(untraced["reps"])
        print_metrics(workload, end_to_end)
        per_layer = run_per_layer(bench, workload, seed)
        print_metrics(workload, per_layer)
        document["workloads"][workload] = {
            **untraced, "end_to_end": end_to_end, "per_layer": per_layer}
    document["ops_attempted"] = bench.attempted
    document["ops_failed"] = len(bench.failures)
    print(f"ops_attempted {bench.attempted} count")
    print(f"ops_failed {len(bench.failures)} count")
    return document


def write_json(path: str, document: Any) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def is_exact(name: str) -> bool:
    """Per-layer metrics that must repeat exactly between two runs of one
    seed on one code revision."""
    if name.startswith("model.") or name == "router.block_ratio":
        return True  # simulated, or a ratio of two counts
    # Every count: calls, counters, GC.  (Cache entries carry wall-clock
    # fields whose printed length varies.)
    return metrics.UNITS[name] == "count" and name != "cluster.cache_bytes"


def spread(values: Sequence[float]) -> float:
    """About how far the median of these reps moves from run to run: the
    distance between their quartiles as a share of the median, over the
    root of their number."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return ((quartiles[2] - quartiles[0]) / statistics.median(values)
            / len(values) ** 0.5)


def compare(path_a: str, path_b: str) -> Dict[str, Any]:
    """The A/B table.  ``WORSE``: B's median is worse than A's by more than
    the bound.  ``unresolved``: it is not, but the median of one side is
    only good to more than the bound (see :func:`spread`) and B's reps do
    not all beat A's, so the medians cannot carry the verdict.  Exact metrics must be identical when the
    seeds are."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    same_seed = a["seed"] == b["seed"]
    rows: List[Dict[str, Any]] = []
    exact_differences: List[str] = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for name, _unit, _better, bound, _doc in metrics.END_TO_END:
            value_a = side_a["end_to_end"][name]
            value_b = side_b["end_to_end"][name]
            reps_a, reps_b = side_a["reps"][name], side_b["reps"][name]
            change = value_b / value_a - 1.0
            widest = max(spread(reps_a), spread(reps_b))
            if change > bound:
                verdict = "WORSE"
            elif widest > bound and max(reps_b) >= min(reps_a):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "a": value_a, "b": value_b, "change": change,
                         "bound": bound, "n_a": len(reps_a),
                         "n_b": len(reps_b), "spread": widest,
                         "verdict": verdict})
        if same_seed:
            for name, value in side_a["per_layer"].items():
                if is_exact(name) and value != side_b["per_layer"].get(name):
                    exact_differences.append(
                        f"{workload} {name}: {value!r} vs "
                        f"{side_b['per_layer'].get(name)!r}")
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'B/A-1':>8s} {'bound':>6s} {'spread':>7s} {'n':>5s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:16s} {row['a']:12.6g} "
              f"{row['b']:12.6g} {row['change']:+8.2%} {row['bound']:6.2f} "
              f"{row['spread']:7.3f} {row['n_a']:2d}/{row['n_b']:<2d}  "
              f"{row['verdict']}")
    for line in exact_differences:
        print(f"exact metric differs: {line}")
    if not same_seed:
        print("seeds differ: exact per-layer metrics not compared")
    return {"schema": "bench_compare/v1",
            "a": {"git_revision": a["git_revision"], "seed": a["seed"]},
            "b": {"git_revision": b["git_revision"], "seed": b["seed"]},
            "rows": rows, "exact_differences": exact_differences}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="write the numbers (all workloads, or "
                                      "the --compare table) here")
    parser.add_argument("--record", action="store_true",
                        help="write the numbers to bench/baseline.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--print-contract", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.print_contract:
        print(json.dumps(metrics.contract(), indent=2))
        return 0
    if args.compare:
        table = compare(*args.compare)
        if args.out:
            write_json(args.out, table)
        broken = table["exact_differences"] or any(
            row["verdict"] == "WORSE" for row in table["rows"])
        return 1 if broken else 0
    if args.record and (args.quick or args.workload
                        or args.seed != DEFAULT_SEED):
        parser.error("--record keeps a full default-seed run only")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    with Bench(quick=args.quick) as bench:
        if args.workload and args.trace:
            values = run_per_layer(bench, args.workload, args.seed)
            print_metrics(args.workload, values)
            print(result_line(bench, values, metrics.PER_LAYER_NAMES))
        elif args.workload:
            values = summarise(run_end_to_end(
                bench, args.workload, args.seed, args.seconds)["reps"])
            print_metrics(args.workload, values)
            print(result_line(bench, values, metrics.E2E_NAMES))
        else:
            document = run_all(bench, args.seed, args.seconds)
            if args.out:
                write_json(args.out, document)
            if args.record:
                write_json(BASELINE_PATH, document)
        return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
