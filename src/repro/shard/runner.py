"""Fork-based sharded execution under conservative lookahead windows.

The parent builds the experiment **once** (`ExperimentExecution` wires
topology, defense, workloads, meters exactly as a serial run would), then
forks one worker per shard.  Fork semantics do the heavy lifting: every
worker inherits the fully wired object graph copy-on-write, so there is no
per-shard rebuild and no pickling of simulators — only the cross-shard
traffic ever crosses a pipe.

Each worker simulates the *whole* topology but only *its* traffic:

* only workload generators whose source host the shard owns are started
  (one zombie army can span shards — each zombie starts on its owner);
* at every cut link the outgoing direction owned by this shard is
  *diverted* — instead of scheduling the delivery locally, the pipe exports
  ``(arrival_time, payload)`` to the coordinator — and the incoming
  direction is kept for *injection* of arrivals the coordinator hands back.

Synchronization is classic conservative lookahead: with ``W`` the minimum
cut-link delay, a packet sent after time ``t`` cannot arrive across a cut
before ``t + W``, so the shards can run a whole window of width ``W``
without hearing from each other.  The coordinator drives barrier windows
``(E_{k-1}, E_k]``: deliver pending arrivals with ``when <= E_k`` (sorted by
``(arrival_time, origin_shard, origin_seq)`` so injection order — and
therefore same-timestamp tie-breaking — is deterministic), let every shard
run to ``E_k``, collect fresh exports, repeat.  An export produced in
window ``k`` arrives strictly after ``E_k``, so no shard ever receives a
message from its own past — the merge is deterministic and, on uncongested
cells, bit-identical to the unsharded train engine (pinned by tests).

Known limits (see ``docs/sharding.md``): fault injection falls back to
serial execution with a warning (link up/down state would have to be
replicated across shard processes), and Pushback's rate-limit recursion is
function-call based rather than message based, so *congested* pushback
cells should run unsharded — the uncongested merge is still exact.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.zombies import ZombieArmy
from repro.experiments.runner import (
    RESULT_SCHEMA,
    BuildCollector,
    ExperimentExecution,
    ExperimentResult,
)
from repro.experiments.spec import ExperimentSpec
from repro.obs.logsetup import get_logger
from repro.shard.partition import Partition, partition_topology

#: Workload-stat keys that describe configuration, not traffic; summing
#: them across shards would multiply static facts by the shard count.
_STATIC_WORKLOAD_KEYS = frozenset({"kind", "role", "offered_bps", "rate",
                                   "zombies"})

#: How long the parent waits for a worker to exit after the collect phase.
_JOIN_TIMEOUT = 30.0


def run_sharded(spec: ExperimentSpec,
                until: Optional[float] = None) -> ExperimentResult:
    """Run ``spec`` across ``spec.engine.shards`` worker processes."""
    shards = spec.engine.shards
    if shards < 2:
        raise ValueError("run_sharded needs engine.shards >= 2")
    execution = ExperimentExecution(spec)
    duration = until if until is not None else spec.duration
    if execution.fault_injector is not None:
        # Link up/down state cannot be split across shards (a downed cut
        # link would have to flip atomically in two worker processes), so
        # fault specs fall back to the serial engine.  The run is still
        # correct and deterministic — it just ignores the shard request.
        get_logger("shard.runner").warning(
            "spec %r requests engine.shards=%d but injects faults; "
            "sharded execution cannot replicate link up/down state across "
            "shard processes, so this run falls back to serial execution "
            "(see docs/sharding.md)", spec.name, shards)
        return execution.run(until=duration)
    mp = multiprocessing.get_context("fork")
    conns = []
    workers = []
    try:
        partition = partition_topology(execution.handle, shards)
        boundaries = _window_boundaries(partition.lookahead, duration)
        # Anything the defense logged while *building* (pre-fork) is
        # inherited by every worker; the merge subtracts these duplicated
        # baselines.
        baseline = execution.backend.collect(execution)
        for shard_id in range(shards):
            parent_conn, child_conn = mp.Pipe()
            worker = mp.Process(
                target=_worker_main,
                args=(shard_id, child_conn, execution, partition, duration),
                daemon=True,
            )
            worker.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(worker)
        partials = _coordinate(conns, partition, boundaries)
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            worker.join(timeout=_JOIN_TIMEOUT)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        # A build big enough to be frozen stays frozen across the forks (a
        # worker's collections then never write to the pages it shares with
        # the parent); nobody calls execution.run() here, so the parent
        # hands it back itself.
        BuildCollector.release()
    return _merge(spec, execution, partition, duration, partials, baseline)


def _window_boundaries(lookahead: Optional[float],
                       duration: float) -> List[float]:
    """Window end times: multiples of the lookahead, closed by the horizon.

    Multiplication (``k * lookahead``) rather than accumulation keeps the
    boundaries float-stable regardless of window count.
    """
    if lookahead is None or lookahead >= duration:
        return [duration]
    boundaries: List[float] = []
    k = 1
    while k * lookahead < duration:
        boundaries.append(k * lookahead)
        k += 1
    boundaries.append(duration)
    return boundaries


# ----------------------------------------------------------------------
# coordinator (parent process)
# ----------------------------------------------------------------------
def _coordinate(conns: Sequence[Any], partition: Partition,
                boundaries: Sequence[float]) -> List[Dict[str, Any]]:
    """Drive the barrier windows; returns one result partial per shard."""
    owner = partition.owner
    # Destination shard of each (cut link, direction): whoever owns the
    # receiving end.  Direction 0 is a->b, direction 1 is b->a.
    dest: Dict[Tuple[int, int], int] = {}
    for index, link in enumerate(partition.cut_links):
        dest[(index, 0)] = owner[link.b.name]
        dest[(index, 1)] = owner[link.a.name]

    # (when, origin_shard, origin_seq, cut_index, dir_code, is_train, payload)
    pending: List[Tuple] = []
    seq_counters = [0] * len(conns)
    for end in boundaries:
        deliverable: List[List[Tuple]] = [[] for _ in conns]
        later: List[Tuple] = []
        for item in pending:
            if item[0] <= end:
                deliverable[dest[(item[3], item[4])]].append(item)
            else:
                later.append(item)
        pending = later
        for shard_id, conn in enumerate(conns):
            arrivals = sorted(deliverable[shard_id],
                              key=lambda it: (it[0], it[1], it[2]))
            conn.send(("window", end,
                       [(it[0], it[3], it[4], it[5], it[6])
                        for it in arrivals]))
        for shard_id, conn in enumerate(conns):
            kind, body = _recv(conn, shard_id)
            if kind != "exports":
                raise RuntimeError(
                    f"shard {shard_id}: expected exports, got {kind!r}")
            for when, cut_index, dir_code, is_train, payload in body:
                pending.append((when, shard_id, seq_counters[shard_id],
                                cut_index, dir_code, is_train, payload))
                seq_counters[shard_id] += 1
    # Leftover pending arrivals land strictly after the horizon (each sits
    # at least one lookahead past the window it was sent in); a serial run
    # would have scheduled but never executed them — drop them.
    partials: List[Dict[str, Any]] = []
    for shard_id, conn in enumerate(conns):
        conn.send(("collect",))
        kind, body = _recv(conn, shard_id)
        if kind != "partial":
            raise RuntimeError(
                f"shard {shard_id}: expected partial, got {kind!r}")
        partials.append(body)
    return partials


def _recv(conn: Any, shard_id: int) -> Tuple[str, Any]:
    message = conn.recv()
    if message[0] == "error":
        raise RuntimeError(f"shard {shard_id} failed:\n{message[1]}")
    return message[0], message[1]


# ----------------------------------------------------------------------
# worker (child process)
# ----------------------------------------------------------------------
def _worker_main(shard_id: int, conn: Any, execution: ExperimentExecution,
                 partition: Partition, duration: float) -> None:
    try:
        outbox: List[Tuple] = []
        inject_pipes = _wire_cut_links(execution, partition, shard_id, outbox)
        started_collectors = _start_owned(execution, partition, shard_id,
                                          duration)
        sim = execution.sim
        while True:
            message = conn.recv()
            if message[0] == "window":
                _, end, arrivals = message
                for when, cut_index, dir_code, is_train, payload in arrivals:
                    inject_pipes[(cut_index, dir_code)].inject(
                        when, is_train, payload)
                sim.run(until=end)
                conn.send(("exports", list(outbox)))
                outbox.clear()
            elif message[0] == "collect":
                partial = _collect_partial(execution, partition, shard_id,
                                           duration, started_collectors)
                conn.send(("partial", partial))
                return
            else:
                raise RuntimeError(f"unknown message {message[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _wire_cut_links(execution: ExperimentExecution, partition: Partition,
                    shard_id: int, outbox: List[Tuple]) -> Dict[Tuple[int, int], Any]:
    """Divert owned outgoing directions; keep owned incoming for injection."""
    owner = partition.owner
    inject_pipes: Dict[Tuple[int, int], Any] = {}
    for index, link in enumerate(partition.cut_links):
        for dir_code, receiver in ((0, link.b), (1, link.a)):
            sender = link.a if dir_code == 0 else link.b
            pipe = link.pipe_toward(receiver)
            if owner[sender.name] == shard_id:
                pipe.divert(_make_export(outbox, index, dir_code))
            if owner[receiver.name] == shard_id:
                inject_pipes[(index, dir_code)] = pipe
    return inject_pipes


def _make_export(outbox: List[Tuple], index: int, dir_code: int):
    def export(when: float, is_train: bool, payload: Any) -> None:
        outbox.append((when, index, dir_code, is_train, payload))
    return export


def _start_owned(execution: ExperimentExecution, partition: Partition,
                 shard_id: int, duration: float) -> Set[str]:
    """Start only what this shard owns, in the serial runner's order."""
    owner = partition.owner
    if execution.observer is not None:
        execution.observer.start(execution, duration)
    for workload in execution.workloads:
        _start_workload_owned(execution, workload, owner, shard_id)
    started: Set[str] = set()
    for collector in execution.collectors:
        anchor = getattr(collector, "anchor", None)
        anchor_shard = owner.get(anchor, 0) if anchor is not None else 0
        if anchor_shard == shard_id:
            collector.start()
            started.add(collector.id)
    victim_gw = execution.handle.victim_gateway
    if (execution.victim_gw_occupancy is not None
            and owner[victim_gw.name] == shard_id):
        execution.victim_gw_occupancy.start()
    attacker_gw = execution._attacker_gateway()
    if (execution.attacker_gw_occupancy is not None
            and attacker_gw is not None
            and owner[attacker_gw.name] == shard_id):
        execution.attacker_gw_occupancy.start()
    return started


def _start_workload_owned(execution: ExperimentExecution, workload: Any,
                          owner: Dict[str, int], shard_id: int) -> None:
    generator = workload.generator
    if isinstance(generator, ZombieArmy):
        # One army can span shards: each zombie starts where its host lives.
        for attack in generator.attacks:
            if owner.get(attack.attacker.name, 0) == shard_id:
                attack.start()
        return
    host = getattr(generator, "sender", None)
    if host is None:
        host = getattr(generator, "attacker", None)
    if host is not None:
        if owner.get(host.name, 0) == shard_id:
            workload.start()
        return
    # Control-plane workloads (filter-requests) act through the victim's
    # agent, so they belong to the victim's shard.
    if owner.get(execution.handle.victim.name, 0) == shard_id:
        workload.start()


def _collect_partial(execution: ExperimentExecution, partition: Partition,
                     shard_id: int, duration: float,
                     started_collectors: Set[str]) -> Dict[str, Any]:
    """This shard's share of the result, in the serial _collect order."""
    owner = partition.owner
    window = (execution.attack_window_start, duration)
    attack_received = 0.0
    for meter in execution.attack_meters:
        attack_received += meter.received_bps(*window)
    legit_goodput = execution.goodput_meter.goodput_bps(*window)
    defense_stats = execution.backend.collect(execution)
    defense_extras = _defense_extras(execution, owner, shard_id)
    collector_stats = {c.id: c.collect(execution)
                       for c in execution.collectors
                       if c.id in started_collectors}
    victim_gw = execution.handle.victim_gateway
    victim_peak = None
    if (execution.victim_gw_occupancy is not None
            and owner[victim_gw.name] == shard_id):
        victim_peak = execution.victim_gw_occupancy.peak
    attacker_gw = execution._attacker_gateway()
    attacker_peak = None
    if (execution.attacker_gw_occupancy is not None
            and attacker_gw is not None
            and owner[attacker_gw.name] == shard_id):
        attacker_peak = execution.attacker_gw_occupancy.peak
    return {
        "shard": shard_id,
        "attack_received_bps": attack_received,
        "legit_goodput_bps": legit_goodput,
        "defense_stats": defense_stats,
        "defense_extras": defense_extras,
        "collector_stats": collector_stats,
        "workload_stats": [w.stats() for w in execution.workloads],
        "victim_gateway_peak_filters": victim_peak,
        "attacker_gateway_peak_filters": attacker_peak,
        "observability": (execution.observer.summary(execution)
                          if execution.observer is not None else {}),
    }


def _defense_extras(execution: ExperimentExecution, owner: Dict[str, int],
                    shard_id: int) -> Dict[str, Any]:
    """Backend internals the merge needs beyond the uniform stats dict."""
    backend = execution.backend
    name = getattr(backend, "name", "none")
    if name == "aitf" and getattr(backend, "deployment", None) is not None:
        log = backend.deployment.event_log
        return {"nodes": sorted({event.node for event in log})}
    if name == "pushback" and getattr(backend, "deployment", None) is not None:
        # Only *owned* agents saw real traffic; the pre-armed detection
        # event installs an idle twin of the victim-gateway limiter on
        # every other shard, which must not be double counted.
        routers: List[str] = []
        limiters = dropped = passed = 0
        victim_first = None
        victim_gw = execution.handle.victim_gateway.name
        for router_name in sorted(backend.deployment.agents):
            if owner.get(router_name, 0) != shard_id:
                continue
            agent = backend.deployment.agents[router_name]
            if not agent.limiters:
                continue
            routers.append(router_name)
            limiters += len(agent.limiters)
            for limiter in agent.limiters.values():
                dropped += limiter.packets_dropped
                passed += limiter.packets_passed
            if router_name == victim_gw:
                first = min(limiter.installed_at
                            for limiter in agent.limiters.values())
                victim_first = first - execution.attack_window_start
        return {"routers": routers, "limiters": limiters,
                "dropped": dropped, "passed": passed,
                "requests": backend.deployment.total_requests,
                "victim_first": victim_first}
    return {}


# ----------------------------------------------------------------------
# merge (parent process)
# ----------------------------------------------------------------------
def _merge(spec: ExperimentSpec, execution: ExperimentExecution,
           partition: Partition, duration: float,
           partials: List[Dict[str, Any]],
           baseline: Dict[str, Any]) -> ExperimentResult:
    victim_shard = partition.owner[execution.handle.victim.name]
    victim_partial = partials[victim_shard]
    # Offered loads are static facts of the (never-run) parent wiring;
    # computing them here in spec order reproduces the serial float sums.
    attack_offered = sum(w.offered_bps for w in execution.attack_workloads())
    legit_offered = sum(w.offered_bps for w in execution.legit_workloads())
    # Every meter attaches at the victim, so the victim's shard measured
    # exactly what the serial run would have.
    attack_received = victim_partial["attack_received_bps"]
    legit_goodput = victim_partial["legit_goodput_bps"]
    defense_stats = _merge_defense(spec.defense.backend, partials, baseline,
                                   victim_shard)
    collector_stats: Dict[str, Dict[str, Any]] = {}
    for collector in execution.collectors:
        for partial in partials:
            if collector.id in partial["collector_stats"]:
                collector_stats[collector.id] = (
                    partial["collector_stats"][collector.id])
                break
    victim_peak = next((p["victim_gateway_peak_filters"] for p in partials
                        if p["victim_gateway_peak_filters"] is not None), None)
    attacker_peak = next(
        (p["attacker_gateway_peak_filters"] for p in partials
         if p["attacker_gateway_peak_filters"] is not None), None)
    return ExperimentResult(
        schema=RESULT_SCHEMA,
        name=spec.name,
        topology=spec.topology.kind,
        defense=spec.defense.backend,
        duration=duration,
        seed=spec.seed,
        attack_offered_bps=attack_offered,
        attack_received_bps=attack_received,
        effective_bandwidth_ratio=(attack_received / attack_offered)
        if attack_offered else 0.0,
        legit_offered_bps=legit_offered,
        legit_goodput_bps=legit_goodput,
        legit_delivery_ratio=min(1.0, legit_goodput / legit_offered)
        if legit_offered > 0 else 0.0,
        time_to_first_block=defense_stats.get("time_to_first_block"),
        nodes_involved=int(defense_stats.get("nodes_involved", 0)),
        control_messages=int(defense_stats.get("control_messages", 0)),
        victim_gateway_peak_filters=victim_peak,
        attacker_gateway_peak_filters=attacker_peak,
        packets_dropped_down=0,
        defense_stats=defense_stats,
        workload_stats=_merge_workload_stats(partials),
        collector_stats=collector_stats,
        observability=_merge_observability(spec, partials),
        spec=spec.to_dict(),
    )


def _merge_defense(backend_name: str, partials: List[Dict[str, Any]],
                   baseline: Dict[str, Any],
                   victim_shard: int) -> Dict[str, Any]:
    stats_list = [p["defense_stats"] for p in partials]
    extras_list = [p["defense_extras"] for p in partials]
    shards = len(stats_list)

    def min_time(key: str) -> Optional[float]:
        values = [s.get(key) for s in stats_list if s.get(key) is not None]
        return min(values) if values else None

    if backend_name == "aitf":
        merged = dict(stats_list[0])
        merged["time_to_first_block"] = min_time("time_to_first_block")
        merged["time_to_attacker_gateway_filter"] = min_time(
            "time_to_attacker_gateway_filter")
        nodes: Set[str] = set()
        for extras in extras_list:
            nodes.update(extras.get("nodes", ()))
        merged["nodes_involved"] = len(nodes)
        for key in ("control_messages", "disconnections", "shadow_hits",
                    "requests_sent_by_victim"):
            # Each event is logged on exactly one shard (the shard whose
            # traffic produced it); the pre-fork baseline was inherited by
            # every shard and must be un-duplicated.
            base = baseline.get(key) or 0
            merged[key] = (sum(s.get(key) or 0 for s in stats_list)
                           - (shards - 1) * base)
        merged["escalation_rounds"] = max(
            s.get("escalation_rounds") or 0 for s in stats_list)
        return merged
    if backend_name == "pushback":
        merged = dict(stats_list[0])
        firsts = [e.get("victim_first") for e in extras_list
                  if e.get("victim_first") is not None]
        merged["time_to_first_block"] = min(firsts) if firsts else None
        routers: Set[str] = set()
        for extras in extras_list:
            routers.update(extras.get("routers", ()))
        merged["nodes_involved"] = len(routers)
        merged["control_messages"] = sum(e.get("requests", 0)
                                         for e in extras_list)
        merged["total_limiters"] = sum(e.get("limiters", 0)
                                       for e in extras_list)
        merged["packets_dropped"] = sum(e.get("dropped", 0)
                                        for e in extras_list)
        merged["packets_passed"] = sum(e.get("passed", 0)
                                       for e in extras_list)
        return merged
    if backend_name == "ingress-dpf":
        merged = dict(stats_list[0])
        checked = sum(s.get("packets_checked", 0) for s in stats_list)
        detected = sum(s.get("spoofed_detected", 0) for s in stats_list)
        dropped = sum(s.get("spoofed_dropped", 0) for s in stats_list)
        merged["packets_checked"] = checked
        merged["spoofed_detected"] = detected
        merged["spoofed_dropped"] = dropped
        merged["detection_ratio"] = detected / checked if checked else 0.0
        merged["time_to_first_block"] = 0.0 if dropped else None
        return merged
    if backend_name == "manual":
        # Operator actions are time-triggered, so every shard installed the
        # same filters; any shard's counters are the full picture.
        merged = dict(stats_list[0])
        merged["time_to_first_block"] = min_time("time_to_first_block")
        for key in ("nodes_involved", "filters_installed",
                    "filters_scheduled"):
            merged[key] = max(s.get(key) or 0 for s in stats_list)
        return merged
    return dict(stats_list[victim_shard])


def _merge_workload_stats(partials: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-workload counters: static keys take-first, traffic keys summed.

    Every shard reports the same workload list (it inherited the same
    wiring); only the generators it started have nonzero traffic counters,
    so summing across shards reassembles the serial numbers.
    """
    per_shard = [p["workload_stats"] for p in partials]
    merged: List[Dict[str, Any]] = []
    for stats_tuple in zip(*per_shard):
        combined = dict(stats_tuple[0])
        for key in combined:
            if key in _STATIC_WORKLOAD_KEYS:
                continue
            values = [stats.get(key) for stats in stats_tuple]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
                combined[key] = sum(values)
        merged.append(combined)
    return merged


def _merge_observability(spec: ExperimentSpec,
                         partials: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic union of the per-shard observability summaries."""
    if not spec.observe.enabled:
        return {}
    summaries = [p["observability"] for p in partials]
    merged: Dict[str, Any] = {"per_shard": summaries}
    if any("trace" in s for s in summaries):
        channels: Dict[str, int] = {}
        records = 0
        for summary in summaries:
            trace = summary.get("trace") or {}
            for channel, count in (trace.get("channels") or {}).items():
                channels[channel] = channels.get(channel, 0) + count
            records += trace.get("records", 0)
        merged["trace"] = {"channels": dict(sorted(channels.items())),
                           "records": records}
    if any("metrics" in s for s in summaries):
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        for summary in summaries:
            metrics = summary.get("metrics") or {}
            for key, value in (metrics.get("counters") or {}).items():
                counters[key] = counters.get(key, 0) + value
            for key, value in (metrics.get("gauges") or {}).items():
                gauges[key] = max(gauges[key], value) if key in gauges else value
        merged["metrics"] = {"counters": dict(sorted(counters.items())),
                             "gauges": dict(sorted(gauges.items()))}
    if any("protocol_events" in s for s in summaries):
        # counts_by_type() dicts: per-type event totals summed across shards.
        events: Dict[str, int] = {}
        for summary in summaries:
            for kind, count in (summary.get("protocol_events") or {}).items():
                events[kind] = events.get(kind, 0) + count
        merged["protocol_events"] = dict(sorted(events.items()))
    return merged
