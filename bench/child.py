"""One benchmark op in a fresh process.

``bench/run.py`` starts this file once per repetition (``PYTHONHASHSEED=0``,
default GC, ``PYTHONPATH=<checkout>/src``) and reads the JSON object it
prints as its last line.  An *op* is what a user asks for:

* ``run``        — one ``repro run`` equivalent: spec JSON in, result JSON out;
* ``sweep_cold`` — one sweep through ``SweepCoordinator`` on an empty cache;
* ``sweep_warm`` — fill the cache (set-up), then resume the same sweep
  ``--warm-passes`` times; the op is one resumed pass;
* ``par2``       — the same grid through ``SweepRunner`` with one and with
  two workers (wall-clock ratio only, for the traced run).

Everything is measured from outside the program: user-mode CPU time around
calls into public functions, public counters read after the run and, with
``--trace 1``, one cProfile run folded onto the layer map plus
``gc.callbacks``.  Spans are kept in memory and leave with the final JSON.
Checks run after the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (bench/layers.py)

#: The uniform ``experiment_result/v1`` statistics the cross-engine
#: comparison and the ``model.*`` metrics read.
UNIFORM_STATS = (
    "attack_offered_bps", "attack_received_bps", "effective_bandwidth_ratio",
    "legit_offered_bps", "legit_goodput_bps", "legit_delivery_ratio",
    "time_to_first_block", "nodes_involved", "control_messages",
)
RATIO_STATS = ("effective_bandwidth_ratio", "legit_delivery_ratio")


def cpu() -> float:
    """User-mode CPU seconds of this process so far.

    Kernel time is left out of every benchmark time (and reported beside
    it as ``host.op_sys_s``): on this box's ext4 the sweep's few hundred
    small file operations cost 0.12 s or 0.50 s of it depending on the
    journal's state, in steps lasting minutes that no user-mode probe
    sees, while the user share of the same op did not move with them.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Spans:
    """Harness-side spans: name, parent, CPU start and end (user seconds
    since process start).  Kept in memory; written with the final JSON."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []

    def open(self, name: str) -> Dict[str, Any]:
        record = {"name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": cpu(), "end": None}
        self.records.append(record)
        self._stack.append(name)
        return record

    def close(self, record: Dict[str, Any]) -> float:
        record["end"] = cpu()
        self._stack.pop()
        return record["end"] - record["start"]

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)


class GcTimer:
    """CPU time spent inside cyclic collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.process_time()
        else:
            self.seconds += time.process_time() - self._start


def gc_counts() -> Dict[str, int]:
    per_generation = gc.get_stats()
    return {"collections": sum(g["collections"] for g in per_generation),
            "gen2": per_generation[2]["collections"]}


def digest_of(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_packets(execution: Any) -> int:
    """Packets the workload generators produced (sent or suppressed)."""
    total = 0
    for workload in execution.workloads:
        generator = workload.generator
        if hasattr(generator, "packets_offered"):
            total += generator.packets_offered
        else:
            total += (generator.packets_sent
                      + getattr(generator, "packets_suppressed", 0))
    return total


# ----------------------------------------------------------------------
# checks (untimed)
# ----------------------------------------------------------------------
def check_result(result: Dict[str, Any], where: str) -> List[str]:
    """Schema and invariant violations of one ``experiment_result/v1``."""
    found: List[str] = []
    if result.get("schema") != "experiment_result/v1":
        found.append(f"{where}: schema is {result.get('schema')!r}")
    for key in UNIFORM_STATS:
        if key not in result:
            found.append(f"{where}: missing {key}")
        elif key != "time_to_first_block" and not isinstance(
                result[key], (int, float)):
            found.append(f"{where}: {key} is not a number")
    for key in RATIO_STATS:
        value = result.get(key)
        if isinstance(value, (int, float)) and not 0.0 <= value <= 1.0:
            found.append(f"{where}: {key}={value} outside [0, 1]")
    for key in ("attack_received_bps", "legit_goodput_bps"):
        value = result.get(key)
        if isinstance(value, (int, float)) and value < 0:
            found.append(f"{where}: {key}={value} is negative")
    return found


def check_links(execution: Any) -> List[str]:
    """delivered + dropped <= sent on every link direction."""
    found: List[str] = []
    for link in execution.handle.topology.links:
        for end in (link.a, link.b):
            stats = link.stats_toward(end)
            if stats.packets_delivered + stats.packets_dropped \
                    > stats.packets_sent:
                found.append(f"link {link.name}: delivered "
                             f"{stats.packets_delivered} + dropped "
                             f"{stats.packets_dropped} > sent "
                             f"{stats.packets_sent}")
            if stats.packets_dropped_down > stats.packets_dropped:
                found.append(f"link {link.name}: dropped_down exceeds dropped")
    return found


# ----------------------------------------------------------------------
# counters read from public attributes after a run
# ----------------------------------------------------------------------
COUNTER_NAMES = (
    "sim.events_fired", "sim.heap_compactions", "sim.pending_at_end",
    "net.pkts_sent", "net.pkts_delivered", "net.pkts_dropped",
    "net.pkts_dropped_down",
    "router.pkts_checked", "router.pkts_blocked", "router.filters_installed",
    "router.filter_peak",
    "core.control_msgs", "core.nodes_involved",
    "routing_policy.anchors_materialized", "routing_policy.routes_installed",
    "faults.events", "faults.dijkstras", "faults.anchors_recomputed",
    "faults.routes_installed", "faults.routes_removed",
    "obs.trace_records",
)


def read_counters(execution: Any, result: Any,
                  into: Dict[str, float]) -> None:
    """Add one finished execution's counters into ``into`` (``filter_peak``
    takes the maximum, everything else sums — a sweep adds up its cells)."""
    from repro.router.nodes import BorderRouter

    sim = execution.sim
    into["sim.events_fired"] += sim.events_processed
    into["sim.heap_compactions"] += sim.heap_compactions
    into["sim.pending_at_end"] += sim.pending_events
    topology = execution.handle.topology
    for link in topology.links:
        for end in (link.a, link.b):
            stats = link.stats_toward(end)
            into["net.pkts_sent"] += stats.packets_sent
            into["net.pkts_delivered"] += stats.packets_delivered
            into["net.pkts_dropped"] += stats.packets_dropped
            into["net.pkts_dropped_down"] += stats.packets_dropped_down
    for node in topology.all_nodes():
        if isinstance(node, BorderRouter):
            table = node.filter_table
            into["router.pkts_checked"] += table.packets_checked
            into["router.pkts_blocked"] += table.packets_blocked
            into["router.filters_installed"] += table.total_installed
            into["router.filter_peak"] = max(into["router.filter_peak"],
                                             table.peak_occupancy)
    into["core.control_msgs"] += result.control_messages
    into["core.nodes_involved"] += result.nodes_involved
    policy = getattr(topology, "policy", None)
    if policy is not None:
        into["routing_policy.anchors_materialized"] += \
            policy.stats["anchors_materialized"]
        into["routing_policy.routes_installed"] += \
            policy.stats["routes_installed"]
    injector = execution.fault_injector
    if injector is not None:
        into["faults.events"] += len(injector.timeline)
        for record in injector.timeline:
            for key in ("dijkstras", "anchors_recomputed", "routes_installed",
                        "routes_removed"):
                into[f"faults.{key}"] += record.get(key, 0)
    trace = result.observability.get("trace", {})
    into["obs.trace_records"] += trace.get("records", 0)


# ----------------------------------------------------------------------
# phases read from the profile: metric -> (file under src/repro, functions)
# ----------------------------------------------------------------------
PROFILE_PHASES = {
    "phase.build_s": ("experiments/topologies.py", ("build_topology",)),
    "phase.deploy_s": ("experiments/backends.py", ("deploy", "arm")),
    "phase.workloads_s": ("experiments/workloads.py", ("build_workload",)),
    "phase.faults_init_s": ("faults.py", ("from_spec",)),
    "phase.simulate_s": ("sim/engine.py", ("run",)),
    "phase.collect_s": ("experiments/runner.py", ("_collect",)),
    "phase.materialize_s": ("routing_policy/manager.py", ("materialize",)),
    "phase.submit_s": ("cluster/coordinator.py", ("submit",)),
    "phase.execute_s": ("cluster/coordinator.py", ("execute",)),
    "phase.merge_s": ("cluster/coordinator.py", ("merge",)),
    "phase.hash_s": ("experiments/spec.py", ("spec_hash",)),
    "phase.cache_get_s": ("cluster/cache.py", ("get",)),
    "phase.cache_put_s": ("cluster/cache.py", ("put",)),
}
REROUTE_PHASES = (("topology/dynamic.py", ("apply",)),
                  ("routing_policy/manager.py", ("apply",)))


def profile_summary(profiler: Any) -> Dict[str, Any]:
    import pstats

    stats = pstats.Stats(profiler).stats
    phases = {name: layers.cumulative(stats, path, functions)
              for name, (path, functions) in PROFILE_PHASES.items()}
    phases["phase.reroute_s"] = sum(
        layers.cumulative(stats, path, functions)
        for path, functions in REROUTE_PHASES)
    buckets = layers.fold(stats)
    return {"total_s": sum(b["self_s"] for b in buckets.values()),
            "buckets": buckets, "phases": phases}


class Tracer:
    """cProfile + gc timing around the op when ``--trace 1``; inert
    otherwise, so the untraced op runs no extra code."""

    def __init__(self, enabled: bool) -> None:
        self.profiler = None
        self.gc_timer: Optional[GcTimer] = None
        if enabled:
            import cProfile
            self.profiler = cProfile.Profile()
            self.gc_timer = GcTimer()

    def start(self) -> None:
        if self.profiler is not None:
            gc.callbacks.append(self.gc_timer)
            self.profiler.enable()

    def stop(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
            gc.callbacks.remove(self.gc_timer)

    def report(self, record: Dict[str, Any]) -> None:
        if self.profiler is not None:
            record["profile"] = profile_summary(self.profiler)
            record["gc_s"] = self.gc_timer.seconds


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------
def op_run(args: argparse.Namespace, spans: Spans,
           tracer: Tracer) -> Dict[str, Any]:
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.spec import ExperimentSpec

    with open(args.input) as handle:
        text = handle.read()
    if args.engine or args.duration or args.no_observe:
        # The check pass re-runs the same input on the other engine, at a
        # shorter horizon, or untapped; the timed op never takes this path.
        data = json.loads(text)
        if args.engine:
            data.setdefault("engine", {})["mode"] = args.engine
        if args.duration:
            data["duration"] = args.duration
            data["faults"] = [f for f in data.get("faults", [])
                              if f["time"] < args.duration]
        if args.no_observe:
            data.pop("observe", None)
        text = json.dumps(data)

    tracer.start()
    op = spans.open("op")
    span = spans.open("parse")
    spec = ExperimentSpec.from_dict(json.loads(text))
    spans.close(span)
    span = spans.open("prepare")
    execution = ExperimentRunner().prepare(spec)
    spans.close(span)
    setup_end = cpu()
    span = spans.open("run")
    result = execution.run()
    sim_s = spans.close(span)
    span = spans.open("serialize")
    document = json.dumps(result.to_dict(), sort_keys=True)
    spans.close(span)
    spans.close(op)
    op_end = cpu()
    tracer.stop()

    result_dict = json.loads(document)
    record = {
        "setup_s": setup_end, "op_s": op_end, "sim_s": sim_s,
        "pkts": generated_packets(execution),
        "events": execution.sim.events_processed,
        "cells": 1,
        "result_bytes": len(document),
        "digest": digest_of(result_dict),
        "stats": {key: result_dict.get(key) for key in UNIFORM_STATS},
        "violations": (check_result(result_dict, "result")
                       + check_links(execution)),
    }
    if args.trace:
        counters = dict.fromkeys(COUNTER_NAMES, 0)
        read_counters(execution, result, counters)
        record["counters"] = counters
    return record


class RunLedger:
    """Wraps ``ExperimentExecution.run`` for the sweep ops, which never
    hand the harness an execution: after each cell's run it reads the
    generated-packet and event counts (and, traced, the layer counters)."""

    def __init__(self, with_counters: bool) -> None:
        self.pkts = 0
        self.events = 0
        self.counters: Optional[Dict[str, float]] = (
            dict.fromkeys(COUNTER_NAMES, 0) if with_counters else None)

    def install(self) -> None:
        from repro.experiments.runner import ExperimentExecution

        original = ExperimentExecution.run
        ledger = self

        def run(execution: Any, until: Optional[float] = None) -> Any:
            result = original(execution, until)
            ledger.pkts += generated_packets(execution)
            ledger.events += execution.sim.events_processed
            if ledger.counters is not None:
                read_counters(execution, result, ledger.counters)
            return result

        ExperimentExecution.run = run


def cache_bytes(cluster_dir: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(
            os.path.join(cluster_dir, "cache")):
        total += sum(os.path.getsize(os.path.join(dirpath, name))
                     for name in filenames)
    return total


def check_sweep(document: Dict[str, Any], cells: int) -> List[str]:
    found: List[str] = []
    if document.get("schema") != "experiment_sweep/v1":
        found.append(f"sweep: schema is {document.get('schema')!r}")
    if len(document.get("cells", [])) != cells:
        found.append(f"sweep: {len(document.get('cells', []))} cells, "
                     f"expected {cells}")
    for cell in document.get("cells", []):
        found.extend(check_result(cell["result"], f"cell {cell['index']}"))
    return found


def op_sweep(args: argparse.Namespace, spans: Spans,
             tracer: Tracer) -> Dict[str, Any]:
    from repro.cluster.coordinator import SweepCoordinator
    from repro.experiments.request import SweepRequest

    warm = args.mode == "sweep_warm"
    with open(args.input) as handle:
        text = handle.read()
    ledger = RunLedger(with_counters=bool(args.trace))
    ledger.install()
    cluster_dir = os.path.join(args.work, "cluster")

    def cold_pass() -> Any:
        span = spans.open("parse")
        request = SweepRequest.from_dict(json.loads(text))
        spans.close(span)
        coordinator = SweepCoordinator(cluster_dir)
        span = spans.open("submit")
        coordinator.submit(request.base, request.grid, reseed=request.reseed)
        spans.close(span)
        submit_end = cpu()
        span = spans.open("execute")
        result = coordinator.execute()
        execute_s = spans.close(span)
        span = spans.open("serialize")
        document = result.to_json()
        spans.close(span)
        return result, document, submit_end, execute_s

    def warm_pass() -> Any:
        span = spans.open("warm_pass")
        request = SweepRequest.from_dict(json.loads(text))
        result = SweepCoordinator(cluster_dir).run_grid(
            request.base, request.grid, reseed=request.reseed, resume=True)
        document = result.to_json()
        return result, document, spans.close(span)

    violations: List[str] = []
    if not warm:
        tracer.start()
        op = spans.open("op")
        result, document, setup_end, execute_s = cold_pass()
        spans.close(op)
        op_end = cpu()
        tracer.stop()
        op_s, sim_s = op_end, execute_s
    else:
        fill = spans.open("fill")
        cold_pass()
        spans.close(fill)
        setup_end = cpu()
        tracer.start()
        passes: List[float] = []
        for _ in range(args.warm_passes):
            result, document, seconds = warm_pass()
            passes.append(seconds)
            misses = result.provenance["cache"]["misses"]
            if misses:
                violations.append(f"warm pass had {misses} cache misses")
        tracer.stop()
        # The op is one resumed pass; a user who resumes pays start-up too,
        # but that is sweep_cold's set-up, measured there.
        op_s = sim_s = statistics.median(passes)

    merged = json.loads(document)
    cells = len(merged.get("cells", []))
    violations.extend(check_sweep(merged, cells=len(result.cells)))
    record = {
        "setup_s": setup_end, "op_s": op_s, "sim_s": sim_s,
        "pkts": ledger.pkts, "events": ledger.events,
        "cells": cells,
        "result_bytes": len(document),
        "digest": digest_of(merged),
        "stats": {},
        "violations": violations,
        "cache": dict(result.provenance["cache"],
                      bytes=cache_bytes(cluster_dir)),
    }
    if warm:
        record["warm_passes"] = len(passes)
    if ledger.counters is not None:
        record["counters"] = ledger.counters
    return record


def op_par2(args: argparse.Namespace, spans: Spans,
            tracer: Tracer) -> Dict[str, Any]:
    """Wall-clock of the grid through ``SweepRunner`` with two workers over
    one worker, paired in this process (pool start-up included)."""
    from repro.experiments.request import SweepRequest
    from repro.experiments.sweep import SweepRunner

    request = SweepRequest.load(args.input)
    walls = {}
    documents = {}
    for workers in (1, 2):
        start = time.perf_counter()
        result = SweepRunner(workers=workers).run_grid(
            request.base, request.grid, reseed=request.reseed)
        documents[workers] = result.to_json()
        walls[workers] = time.perf_counter() - start
    violations = []
    if documents[1] != documents[2]:
        violations.append("sweep bytes differ between 1 and 2 workers")
    return {"par2_wall_ratio": walls[2] / walls[1], "violations": violations,
            "digest": digest_of(json.loads(documents[1]))}


OPS = {"run": op_run, "sweep_cold": op_sweep, "sweep_warm": op_sweep,
       "par2": op_par2}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=list(OPS), required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--work", required=True,
                        help="scratch directory (sweep cluster dir)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm-passes", type=int, default=12)
    parser.add_argument("--engine", choices=("packet", "train"))
    parser.add_argument("--duration", type=float)
    parser.add_argument("--no-observe", action="store_true")
    args = parser.parse_args(argv)

    wall_start = time.perf_counter()
    spans = Spans()
    tracer = Tracer(bool(args.trace))
    gc_before = gc_counts()
    record = OPS[args.mode](args, spans, tracer)
    gc_after = gc_counts()
    tracer.report(record)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(
        mode=args.mode,
        wall_s=time.perf_counter() - wall_start,
        sys_s=usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        gc={key: gc_after[key] - gc_before[key] for key in gc_after},
        phases={"phase.parse_s": spans.duration("parse"),
                "phase.serialize_s": spans.duration("serialize")},
        spans=spans.records,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
