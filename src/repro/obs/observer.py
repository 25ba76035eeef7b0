"""Wires the observability plane into a live experiment.

:class:`ExperimentObserver` is built by
:class:`~repro.experiments.runner.ExperimentExecution` at the end of wiring,
and only when the spec's ``observe`` block enables something.  Every hook it
installs uses an opt-in tap that swaps or subscribes at attach time:

* ``aitf-control`` / ``routing`` — one listener on the AITF deployment's
  :class:`~repro.core.events.ProtocolEventLog` (agents already log every
  protocol action there, so the hot path pays nothing new);
* ``packet`` / ``train`` — :meth:`repro.net.link.Link.tap` wraps each
  pipe's bound delivery method, and
  :meth:`repro.router.filter_table.FilterTable.tap` wraps the blocking
  path, only on observed runs;
* ``fault`` / ``routing`` — a callback on the
  :class:`~repro.faults.FaultInjector` timeline;
* metrics — gauges on filter-table occupancy and the simulator itself,
  sampled on the spec's cadence, plus counters the protocol-event listener
  and the defense backends publish.

Detail values are sanitised to JSON-ready types (tuples become lists,
anything exotic becomes ``str(value)``) so a trace always serializes and is
deterministic for a seeded run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.events import EventType, ProtocolEvent
from repro.net.packet import PacketKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    PACKET_BLOCK,
    PACKET_DELIVER,
    TRAIN_BLOCK,
    TRAIN_DELIVER,
    TraceRecorder,
)

_JSON_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    """Coerce an event-detail value to something JSON can carry verbatim."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


class ExperimentObserver:
    """Per-experiment observability: trace recorder + metrics registry."""

    def __init__(self, execution: Any) -> None:
        observe = execution.spec.observe
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(observe.channels) if observe.channels else None)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry(observe.sample_period) if observe.metrics else None)
        self._install(execution)

    # ------------------------------------------------------------------
    # hook installation
    # ------------------------------------------------------------------
    def _install(self, execution: Any) -> None:
        recorder = self.recorder
        metrics = self.metrics
        sim = execution.sim
        want = recorder.wants if recorder is not None else (lambda _ch: False)
        want_packet = want("packet")
        want_train = want("train")
        want_control = want("aitf-control")
        want_routing = want("routing")
        want_fault = want("fault")

        # Request and filter ids come from process-global counters (cheap
        # and collision-free at runtime), so their raw values depend on
        # whatever ran earlier in the process.  Traces renumber them by
        # first appearance, which restores the bit-identical-rerun
        # guarantee without touching the protocol code.
        request_ids: Dict[int, int] = {}
        filter_ids: Dict[int, int] = {}

        def _dense(ids: Dict[int, int], raw: int) -> int:
            return ids.setdefault(raw, len(ids) + 1)

        # --- protocol event log: aitf-control, routing, and counters ----
        event_log = getattr(getattr(execution.backend, "deployment", None),
                            "event_log", None)
        if event_log is not None and (want_control or want_routing
                                      or metrics is not None):
            def on_protocol_event(event: ProtocolEvent) -> None:
                if metrics is not None:
                    metrics.counter(f"aitf.{event.event_type.value}").inc()
                if want_control:
                    fields: Dict[str, Any] = {
                        key: _jsonable(value)
                        for key, value in event.details.items()
                    }
                    if event.request_id is not None:
                        fields["req"] = _dense(request_ids, event.request_id)
                    recorder.emit("aitf-control", event.time,
                                  event.event_type.value,
                                  node=event.node, **fields)
                if want_routing and event.event_type is EventType.PATH_CHANGED:
                    recorder.emit(
                        "routing", event.time, "path_changed",
                        node=event.node,
                        **{key: _jsonable(value)
                           for key, value in event.details.items()})

            event_log.subscribe(on_protocol_event)

        # --- links: packet / train deliveries ---------------------------
        # Each tap is a wrapper built once per pipe or filter table, with
        # the link, node and table names bound at install: per event it
        # builds a flat body of ints, floats and strings (shapes in
        # repro.obs.trace), looks it up in the recorder's body index,
        # appends the time and the body's index and calls the wrapped
        # method — one Python frame of tracing per delivery or block.
        # Addresses are formatted and record dicts built only when the
        # trace is read.
        if want_packet or want_train:
            index = recorder.index
            append_time = recorder.times.append
            append_id = recorder.ids.append
            data = PacketKind.DATA
            wrap_packet = None
            wrap_train = None
            if want_packet:
                def wrap_packet(link: Any, sink: Any) -> Any:
                    link_name = link.name
                    sink_name = sink.name

                    def traced_receive(packet: Any, link: Any) -> None:
                        kind = packet.kind
                        body_id = index[
                            PACKET_DELIVER, link_name, sink_name,
                            packet.src.value, packet.dst.value, packet.size,
                            None if kind is data else kind.value,
                            packet.flow_tag]
                        append_time(sim._now)
                        append_id(body_id)
                        sink.receive_packet(packet, link)

                    return traced_receive
            if want_train:
                # A train's count and spacing differ on nearly every train
                # of a congested run: its body is appended, not looked up.
                bodies = recorder.bodies
                append_body = bodies.append

                def wrap_train(link: Any, sink: Any, deliver: Any) -> Any:
                    link_name = link.name
                    sink_name = sink.name

                    def traced_deliver_train(train: Any) -> None:
                        template = train.template
                        append_body((TRAIN_DELIVER, link_name, sink_name,
                                     template.src.value, template.dst.value,
                                     train.count, train.interval,
                                     template.size, template.flow_tag))
                        append_time(sim._now)
                        append_id(len(bodies) - 1)
                        deliver(train)

                    return traced_deliver_train
            for link in execution.handle.topology.links:
                link.tap(wrap_packet, wrap_train)

            # Filter-table blocks are where the defense bites traffic;
            # record them on the engine-matching channel.
            sole_block = PACKET_BLOCK if want_packet else TRAIN_BLOCK
            dense_filter = filter_ids.setdefault

            def wrap_blocks(table: Any, blocks: Any) -> Any:
                table_name = table.name or ""

                def traced_blocks(packet: Any) -> Any:
                    entry = blocks(packet)
                    if entry is not None:
                        body_id = index[
                            sole_block, table_name, packet.src.value,
                            packet.dst.value, 1,
                            dense_filter(entry.filter_id,
                                         len(filter_ids) + 1)]
                        append_time(sim._now)
                        append_id(body_id)
                    return entry

                return traced_blocks

            def wrap_blocks_train(table: Any, blocks_train: Any) -> Any:
                table_name = table.name or ""

                def traced_blocks_train(template: Any, count: int,
                                        interval: float,
                                        count_checked: bool = True) -> Any:
                    entry, blocked = blocks_train(template, count, interval,
                                                  count_checked)
                    if entry is not None and blocked:
                        body_id = index[
                            TRAIN_BLOCK if blocked > 1 and want_train
                            else sole_block,
                            table_name, template.src.value,
                            template.dst.value, blocked,
                            dense_filter(entry.filter_id,
                                         len(filter_ids) + 1)]
                        append_time(sim._now)
                        append_id(body_id)
                    return entry, blocked

                return traced_blocks_train

            for router in execution.handle.topology.border_routers():
                router.filter_table.tap(wrap_blocks, wrap_blocks_train)

        # --- fault injector: fault + routing channels -------------------
        injector = execution.fault_injector
        if injector is not None and (want_fault or want_routing):
            def on_fault(record: Dict[str, Any]) -> None:
                fields = {key: _jsonable(value)
                          for key, value in record.items()
                          if key not in ("time", "kind")}
                if want_fault:
                    recorder.emit("fault", record["time"], record["kind"],
                                  **fields)
                if want_routing and record.get("links_changed"):
                    recorder.emit(
                        "routing", record["time"], "reroute",
                        target=record["target"],
                        links_changed=record["links_changed"],
                        routes_installed=record.get("routes_installed", 0),
                        routes_removed=record.get("routes_removed", 0))

            injector.observers.append(on_fault)

        # --- metrics gauges ---------------------------------------------
        if metrics is not None:
            victim_gw = execution.handle.victim_gateway
            metrics.gauge("filters.victim_gateway",
                          lambda: victim_gw.filter_table.occupancy)
            attacker_gw = execution._attacker_gateway()
            if attacker_gw is not None and attacker_gw is not victim_gw:
                metrics.gauge("filters.attacker_gateway",
                              lambda: attacker_gw.filter_table.occupancy)
            metrics.gauge("sim.pending_events",
                          lambda: float(sim.pending_events))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, execution: Any, duration: float) -> None:
        """Begin cadence sampling (called once, when the run starts)."""
        if self.metrics is not None:
            self.metrics.start_sampling(execution.sim, duration)

    def summary(self, execution: Any) -> Dict[str, Any]:
        """The ``ExperimentResult.observability`` payload."""
        data: Dict[str, Any] = {"sim": execution.sim.stats()}
        if self.recorder is not None:
            data["trace"] = self.recorder.summary()
        if self.metrics is not None:
            self.metrics.counter("sim.events_processed").set(
                execution.sim.events_processed)
            data["metrics"] = self.metrics.snapshot()
        event_log = getattr(getattr(execution.backend, "deployment", None),
                            "event_log", None)
        if event_log is not None:
            data["protocol_events"] = event_log.counts_by_type()
        return data
