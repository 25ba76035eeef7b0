"""Fork-based sharded execution under conservative lookahead windows.

The parent builds the experiment **once** (`ExperimentExecution` wires
topology, defense, workloads, meters exactly as a serial run would), then
forks one worker per shard.  Fork semantics do the heavy lifting: every
worker inherits the fully wired object graph copy-on-write, so there is no
per-shard rebuild and no pickling of simulators — only the cross-shard
traffic ever crosses a pipe.

Each worker simulates the *whole* topology but only *its* traffic:

* it starts through the serial ``ExperimentExecution.start``, told which
  nodes it owns: only generators whose source host the shard owns start
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
cells, bit-identical to the unsharded train engine (pinned by tests).  The
parent combines the shards' ``measure()`` by the rule each statistic
declares (:mod:`repro.experiments.combine`) into the serial ``result()``.

Known limits (see ``docs/sharding.md``): fault injection falls back to
serial execution with a warning (link up/down state would have to be
replicated across shard processes), and Pushback's rate-limit recursion is
function-call based rather than message based, so *congested* pushback
cells should run unsharded — the uncongested merge is still exact.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import (
    BuildCollector,
    ExperimentExecution,
    ExperimentResult,
    publish_measurement,
)
from repro.experiments.spec import ExperimentSpec
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.shard.partition import Partition, partition_topology

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
    measured = execution.combine([measure for measure, _ in partials])
    observability = (_merge_observability([summary for _, summary in partials],
                                          measured)
                     if execution.observer is not None else {})
    return execution.result(duration, measured, observability)


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
                boundaries: Sequence[float]) -> List[Tuple[Dict, Dict]]:
    """Drive the barrier windows; returns each shard's measurement and
    observability summary."""
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
    partials: List[Tuple[Dict, Dict]] = []
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
        owner = partition.owner
        execution.start(duration,
                        owns=lambda node: owner.get(node, 0) == shard_id)
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
                observer = execution.observer
                conn.send(("partial", (
                    execution.measure(duration),
                    observer.summary(execution) if observer is not None
                    else {})))
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


# ----------------------------------------------------------------------
# observability merge (parent process)
# ----------------------------------------------------------------------
def _merge_observability(summaries: List[Dict[str, Any]],
                         measured: Mapping[str, Any]) -> Dict[str, Any]:
    """Deterministic union of the per-shard observability summaries; the
    combined defense and collector stats are published once, as serially."""
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
        registry = MetricsRegistry()
        for summary in summaries:
            metrics = summary.get("metrics") or {}
            for key, value in (metrics.get("counters") or {}).items():
                registry.counter(key).inc(value)
            for key, value in (metrics.get("gauges") or {}).items():
                gauge = registry.gauge(key)
                gauge.set(value if gauge.value is None
                          else max(gauge.value, value))
        publish_measurement(registry, measured)
        snapshot = registry.snapshot()
        merged["metrics"] = {"counters": snapshot["counters"],
                             "gauges": snapshot["gauges"]}
    if any("protocol_events" in s for s in summaries):
        # counts_by_type() dicts: per-type event totals summed across shards.
        events: Dict[str, int] = {}
        for summary in summaries:
            for kind, count in (summary.get("protocol_events") or {}).items():
                events[kind] = events.get(kind, 0) + count
        merged["protocol_events"] = dict(sorted(events.items()))
    return merged
