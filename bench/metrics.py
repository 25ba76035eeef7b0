"""The benchmark's contract: workloads, metric names, units, bounds, and
which end-to-end metric each per-layer metric should move on which workload.

``BENCHMARK.json`` at the repository root is :func:`contract` serialised
(``python bench/run.py --print-contract``); the contract test keeps the two
equal.  ``moves`` cannot live in ``BENCHMARK.json`` (its metric entries take
exactly name/unit/better), so it lives here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from gen_workloads import WORKLOADS
from layers import LAYERS

#: What one driver run measures for, in seconds (``--seconds``).
RUN_SECONDS = 14

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: End-to-end metrics: (name, unit, better, bound, definition).  Every
#: workload emits every one of them, none is ever 0, and every time is
#: user-mode CPU seconds at reference host speed (see calibrate.py and
#: child.cpu).  The three timing bounds are the widest the driver allows:
#: this host's speed moves by half in steps lasting seconds, and the run-to-run
#: spread of a 14 s run measured 0.03 in its quiet minutes and 0.10-0.16 in
#: its loud ones.  The counts repeat exactly and carry the tight bounds.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "Process start to simulation start: interpreter and imports, "
     "from_dict, ExperimentRunner.prepare.  sweep_cold: through "
     "SweepCoordinator.submit.  sweep_warm: through the cache fill.  "
     "Median over reps."),
    ("op_s", "s", "lower", 0.25,
     "The whole op, process start to result JSON string.  sweep_warm: one "
     "resumed pass (median of the passes of a rep).  Median over reps."),
    ("sim_us_per_pkt", "us", "lower", 0.25,
     "ExperimentExecution.run CPU per generated packet.  sweep_cold: "
     "SweepCoordinator.execute CPU per packet generated in all cells.  "
     "sweep_warm: one resumed pass per packet the merged document stands "
     "for.  Median over reps."),
    ("events_per_kpkt", "count", "lower", 0.02,
     "Simulator.events_processed per 1000 generated packets (sweeps: summed "
     "over the cells the child simulated).  Repeats exactly for one seed."),
    ("peak_rss_mb", "MB", "lower", 0.05,
     "Largest ru_maxrss of a child over the reps."),
]

# (name, unit, better, moves-metric, moves-workload)
PerLayer = Tuple[str, str, str, str, str]

#: Where each layer's self time should show: layer -> (metric, workload).
LAYER_MOVES: Dict[str, Tuple[str, str]] = {
    "sim": ("sim_us_per_pkt", "fig1_packet"),
    "net": ("sim_us_per_pkt", "fig1_packet"),
    "router": ("sim_us_per_pkt", "fig1_packet"),
    "core": ("setup_s", "fleet_train"),
    "baselines": ("op_s", "sweep_cold"),
    "attacks": ("sim_us_per_pkt", "fig1_packet"),
    "topology": ("setup_s", "fleet_train"),
    "routing_policy": ("op_s", "hier_churn"),
    "faults": ("sim_us_per_pkt", "fleet_churn"),
    "experiments": ("op_s", "sweep_cold"),
    "cluster": ("op_s", "sweep_cold"),
    "obs": ("sim_us_per_pkt", "fig1_observed"),
    "analysis": ("sim_us_per_pkt", "fleet_train"),
    "other": ("op_s", "sweep_cold"),
}


def _layer_metrics() -> List[PerLayer]:
    rows: List[PerLayer] = []
    for layer in LAYERS:
        metric, workload = LAYER_MOVES[layer]
        rows.append((f"{layer}.self_s", "s", "lower", metric, workload))
        rows.append((f"{layer}.calls", "count", "lower", metric, workload))
        rows.append((f"{layer}.share", "ratio", "lower", metric, workload))
    return rows


PER_LAYER: List[PerLayer] = _layer_metrics() + [
    # interpreter and dependencies (partition the profile with the layers)
    ("py.builtin_s", "s", "lower", "op_s", "sweep_warm"),
    ("py.builtin_calls", "count", "lower", "op_s", "sweep_warm"),
    ("py.other_s", "s", "lower", "op_s", "sweep_warm"),
    ("dep.networkx_s", "s", "lower", "setup_s", "fleet_train"),
    # cyclic GC (inside the buckets above, not beside them)
    ("py.gc_s", "s", "lower", "op_s", "hier_churn"),
    ("py.gc_collections", "count", "lower", "op_s", "hier_churn"),
    ("py.gc_gen2", "count", "lower", "peak_rss_mb", "hier_churn"),
    # phases: cumulative time of the named public callable
    ("phase.parse_s", "s", "lower", "setup_s", "sweep_cold"),
    ("phase.build_s", "s", "lower", "setup_s", "fleet_train"),
    ("phase.deploy_s", "s", "lower", "setup_s", "fleet_train"),
    ("phase.workloads_s", "s", "lower", "setup_s", "fleet_train"),
    ("phase.faults_init_s", "s", "lower", "setup_s", "fleet_churn"),
    ("phase.simulate_s", "s", "lower", "sim_us_per_pkt", "fig1_packet"),
    ("phase.reroute_s", "s", "lower", "sim_us_per_pkt", "fleet_churn"),
    ("phase.materialize_s", "s", "lower", "op_s", "hier_churn"),
    ("phase.collect_s", "s", "lower", "op_s", "fleet_train"),
    ("phase.serialize_s", "s", "lower", "op_s", "sweep_cold"),
    ("phase.submit_s", "s", "lower", "setup_s", "sweep_cold"),
    ("phase.execute_s", "s", "lower", "sim_us_per_pkt", "sweep_cold"),
    ("phase.merge_s", "s", "lower", "op_s", "sweep_warm"),
    ("phase.hash_s", "s", "lower", "setup_s", "sweep_cold"),
    ("phase.cache_get_s", "s", "lower", "op_s", "sweep_warm"),
    ("phase.cache_put_s", "s", "lower", "op_s", "sweep_cold"),
    # counters read from public attributes after the run
    ("sim.events_fired", "count", "lower", "events_per_kpkt", "fig1_packet"),
    ("sim.heap_compactions", "count", "lower", "sim_us_per_pkt",
     "fig1_packet"),
    ("sim.pending_at_end", "count", "lower", "peak_rss_mb", "fig1_packet"),
    ("net.pkts_sent", "count", "lower", "events_per_kpkt", "fig1_packet"),
    ("net.pkts_delivered", "count", "higher", "events_per_kpkt",
     "fig1_packet"),
    ("net.pkts_dropped", "count", "lower", "events_per_kpkt", "fleet_train"),
    ("net.pkts_dropped_down", "count", "lower", "events_per_kpkt",
     "fleet_churn"),
    ("router.pkts_checked", "count", "lower", "sim_us_per_pkt",
     "fig1_packet"),
    ("router.pkts_blocked", "count", "higher", "events_per_kpkt",
     "fig1_packet"),
    ("router.block_ratio", "ratio", "higher", "events_per_kpkt",
     "fig1_packet"),
    ("router.filters_installed", "count", "lower", "sim_us_per_pkt",
     "fleet_train"),
    ("router.filter_peak", "count", "lower", "peak_rss_mb", "fleet_train"),
    ("core.control_msgs", "count", "lower", "events_per_kpkt", "fleet_train"),
    ("core.nodes_involved", "count", "lower", "sim_us_per_pkt",
     "fleet_train"),
    ("routing_policy.anchors_materialized", "count", "lower", "op_s",
     "hier_churn"),
    ("routing_policy.routes_installed", "count", "lower", "peak_rss_mb",
     "hier_churn"),
    ("faults.events", "count", "lower", "sim_us_per_pkt", "fleet_churn"),
    ("faults.dijkstras", "count", "lower", "sim_us_per_pkt", "fleet_churn"),
    ("faults.anchors_recomputed", "count", "lower", "sim_us_per_pkt",
     "fleet_churn"),
    ("faults.routes_installed", "count", "lower", "sim_us_per_pkt",
     "fleet_churn"),
    ("faults.routes_removed", "count", "lower", "sim_us_per_pkt",
     "fleet_churn"),
    ("cluster.cache_hits", "count", "higher", "op_s", "sweep_warm"),
    ("cluster.cache_misses", "count", "lower", "op_s", "sweep_cold"),
    ("cluster.cache_bytes", "count", "lower", "op_s", "sweep_warm"),
    ("cluster.warm_cell_us", "us", "lower", "op_s", "sweep_warm"),
    ("experiments.cells", "count", "higher", "op_s", "sweep_cold"),
    ("experiments.cell_ms", "ms", "lower", "op_s", "sweep_cold"),
    ("experiments.result_bytes", "count", "lower", "op_s", "sweep_warm"),
    ("experiments.digest_mismatch", "count", "lower", "events_per_kpkt",
     "fig1_packet"),
    ("experiments.par2_wall_ratio", "ratio", "lower", "op_s", "sweep_cold"),
    ("obs.trace_records", "count", "lower", "sim_us_per_pkt",
     "fig1_observed"),
    ("obs.overhead_x", "ratio", "lower", "sim_us_per_pkt", "fig1_observed"),
    # simulated results (exact for one seed)
    ("model.ttfb_s", "s", "lower", "events_per_kpkt", "fig1_packet"),
    ("model.legit_delivery", "ratio", "higher", "events_per_kpkt",
     "fleet_train"),
    ("model.attack_received_bps", "bit/s", "lower", "events_per_kpkt",
     "fleet_train"),
    ("model.effective_bw_ratio", "ratio", "lower", "events_per_kpkt",
     "fig1_packet"),
    ("model.xengine_err", "ratio", "lower", "events_per_kpkt", "fleet_train"),
    # the host and the tracing itself (diagnostics)
    ("host.cal_s", "s", "lower", "op_s", "fig1_packet"),
    ("host.cal_spread", "ratio", "lower", "op_s", "fig1_packet"),
    ("host.op_cpu_s_raw", "s", "lower", "op_s", "fig1_packet"),
    ("host.op_sys_s", "s", "lower", "op_s", "sweep_cold"),
    ("host.op_wall_s", "s", "lower", "op_s", "fig1_packet"),
    ("host.nproc", "count", "higher", "op_s", "sweep_cold"),
    ("trace.overhead_x", "ratio", "lower", "op_s", "fig1_packet"),
    ("trace.total_s", "s", "lower", "op_s", "fig1_packet"),
    ("trace.closure_err", "ratio", "lower", "op_s", "fig1_packet"),
]

E2E_NAMES = [row[0] for row in END_TO_END]
PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
UNITS: Dict[str, str] = {row[0]: row[1] for row in (*END_TO_END, *PER_LAYER)}
MOVES: Dict[str, Dict[str, str]] = {
    name: {"metric": metric, "workload": workload}
    for name, _unit, _better, metric, workload in PER_LAYER}


def contract() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _doc in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _metric, _workload in PER_LAYER],
    }
