"""The flight recorder: AITF protocol timelines from the ``aitf-control`` channel.

Each filtering request carries one ``request_id`` through its whole life —
the victim's REQUEST_SENT, the victim gateway's temporary filter, the
verification handshake, the attacker gateway's wire-speed filter, any
escalations up the recorded path and, at the bitter end, disconnection.
:class:`FlightRecorder` folds a trace's ``aitf-control`` records back into
one :class:`RequestTimeline` per request, keyed by (victim, attacker flow),
so "why did this cell's defense collapse" becomes a readable story instead
of a grep over raw events.

The milestones are the paper's own metrics: ``temp_filter_at`` minus the
attack start is exactly the run's ``time_to_first_block``, and
``remote_filter_at`` minus attack start is ``time_to_attacker_gateway_filter``
(asserted by the CI trace-smoke job).  ``diff_timelines`` lines two traces
up request-by-request — the packet-vs-train parity check is a diff with
zero entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Milestone fields compared by :func:`diff_timelines`, in display order.
MILESTONES = ("requested_at", "temp_filter_at", "handshake_confirmed_at",
              "remote_filter_at", "flow_stopped_at", "disconnected_at")


def _label_field(label: str, key: str) -> Optional[str]:
    """Pull ``src``/``dst`` out of a FlowLabel's ``key=value`` rendering."""
    match = re.search(rf"\b{key}=([^,\s)]+)", label)
    if match is None or match.group(1) == "*":
        return None
    return match.group(1)


@dataclass
class RequestTimeline:
    """One filtering request's reconstructed life, in event order."""

    request_id: int
    victim: Optional[str] = None
    attacker: Optional[str] = None
    label: Optional[str] = None
    victim_gateway: Optional[str] = None
    attacker_gateway: Optional[str] = None
    requested_at: Optional[float] = None
    temp_filter_at: Optional[float] = None
    handshake_started_at: Optional[float] = None
    handshake_confirmed_at: Optional[float] = None
    remote_filter_at: Optional[float] = None
    flow_stopped_at: Optional[float] = None
    disconnected_at: Optional[float] = None
    escalations: List[Dict[str, Any]] = field(default_factory=list)
    rejections: List[Dict[str, Any]] = field(default_factory=list)
    shadow_hits: int = 0
    path_changes: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def max_round(self) -> int:
        """Deepest escalation round this request reached (0 when none)."""
        return max((e.get("round", 0) for e in self.escalations), default=0)

    @property
    def resolved(self) -> bool:
        """True once a filter exists beyond the victim's own gateway."""
        return (self.remote_filter_at is not None
                or self.flow_stopped_at is not None
                or self.disconnected_at is not None)

    def milestones(self) -> Dict[str, Optional[float]]:
        """The comparable milestone times, in display order."""
        return {name: getattr(self, name) for name in MILESTONES}

    def describe(self) -> List[str]:
        """Human-readable timeline lines for ``repro trace show``."""
        head = f"request {self.request_id}"
        if self.victim:
            head += f"  victim={self.victim}"
        if self.attacker:
            head += f"  attacker={self.attacker}"
        lines = [head]
        for record in self.events:
            extras = [f"{key}={record[key]}" for key in sorted(record)
                      if key not in ("t", "ch", "ev", "node", "req")]
            suffix = f"  ({', '.join(extras)})" if extras else ""
            lines.append(f"  {record['t']:>10.6f}s  {record['ev']:<22} "
                         f"{record.get('node', '')}{suffix}")
        return lines


class FlightRecorder:
    """Reconstructs per-request timelines from ``aitf-control`` records."""

    def __init__(self, records: Iterable[Dict[str, Any]]) -> None:
        self._timelines: Dict[int, RequestTimeline] = {}
        for record in records:
            if record.get("ch") != "aitf-control":
                continue
            self._fold(record)

    @classmethod
    def from_trace(cls, path: str) -> "FlightRecorder":
        """Build from a trace file written by ``repro trace record``."""
        from repro.obs.trace import load_trace

        _header, records = load_trace(path)
        return cls(records)

    @classmethod
    def from_recorder(cls, recorder: Any) -> "FlightRecorder":
        """Build from a live :class:`~repro.obs.trace.TraceRecorder`."""
        return cls(recorder.records("aitf-control"))

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def _fold(self, record: Dict[str, Any]) -> None:
        request_id = record.get("req")
        if request_id is None:
            return
        timeline = self._timelines.get(request_id)
        if timeline is None:
            timeline = self._timelines[request_id] = RequestTimeline(request_id)
        timeline.events.append(record)
        t = record["t"]
        event = record["ev"]
        node = record.get("node")
        if event == "request_sent":
            # The first request_sent is the victim host opening the case;
            # later ones are gateways propagating it along the path.
            if timeline.requested_at is None:
                timeline.requested_at = t
                timeline.victim = node
                label = record.get("label")
                if label:
                    timeline.label = label
                    timeline.attacker = _label_field(label, "src")
        elif event == "temp_filter_installed":
            if timeline.temp_filter_at is None:
                timeline.temp_filter_at = t
                timeline.victim_gateway = node
        elif event == "handshake_started":
            if timeline.handshake_started_at is None:
                timeline.handshake_started_at = t
        elif event == "handshake_confirmed":
            if timeline.handshake_confirmed_at is None:
                timeline.handshake_confirmed_at = t
        elif event == "filter_installed":
            if timeline.remote_filter_at is None:
                timeline.remote_filter_at = t
                timeline.attacker_gateway = node
        elif event == "flow_stopped":
            if timeline.flow_stopped_at is None:
                timeline.flow_stopped_at = t
        elif event == "disconnection":
            if timeline.disconnected_at is None:
                timeline.disconnected_at = t
        elif event == "escalation":
            timeline.escalations.append(
                {"t": t, "round": record.get("round", 0),
                 "target": record.get("target")})
        elif event == "request_rejected":
            timeline.rejections.append(
                {"t": t, "node": node, "reason": record.get("reason")})
        elif event == "shadow_hit":
            timeline.shadow_hits += 1
        elif event == "path_changed":
            timeline.path_changes += 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def timelines(self) -> List[RequestTimeline]:
        """Every reconstructed timeline, by ascending request id."""
        return [self._timelines[request_id]
                for request_id in sorted(self._timelines)]

    def timeline(self, request_id: int) -> Optional[RequestTimeline]:
        return self._timelines.get(request_id)

    def select(self, *, victim: Optional[str] = None,
               attacker: Optional[str] = None) -> List[RequestTimeline]:
        """Timelines filtered by victim node name and/or attacker address."""
        found = []
        for timeline in self.timelines():
            if victim is not None and timeline.victim != victim:
                continue
            if attacker is not None and timeline.attacker != attacker:
                continue
            found.append(timeline)
        return found

    def first_temp_filter_at(self) -> Optional[float]:
        """Earliest victim-gateway temporary filter across all requests."""
        times = [t.temp_filter_at for t in self._timelines.values()
                 if t.temp_filter_at is not None]
        return min(times) if times else None

    def first_remote_filter_at(self) -> Optional[float]:
        """Earliest attacker-gateway wire-speed filter across all requests."""
        times = [t.remote_filter_at for t in self._timelines.values()
                 if t.remote_filter_at is not None]
        return min(times) if times else None


def diff_timelines(a: FlightRecorder, b: FlightRecorder, *,
                   tolerance: float = 0.0) -> List[Dict[str, Any]]:
    """Compare two flight records request-by-request.

    Timelines are aligned by (victim, attacker) pair and occurrence order —
    *not* by raw request id, which comes from a process-global counter and
    differs between runs in one process.  Returns one entry per
    discrepancy: a request present on only one side, or a milestone whose
    times differ by more than ``tolerance`` seconds (including one-sided
    milestones).  An empty list means the protocol behaved identically —
    the packet-vs-train parity criterion.
    """

    def grouped(recorder: FlightRecorder) -> Dict[Any, List[RequestTimeline]]:
        groups: Dict[Any, List[RequestTimeline]] = {}
        for timeline in recorder.timelines():
            groups.setdefault((timeline.victim, timeline.attacker),
                              []).append(timeline)
        return groups

    groups_a = grouped(a)
    groups_b = grouped(b)
    differences: List[Dict[str, Any]] = []
    for key in sorted(set(groups_a) | set(groups_b),
                      key=lambda pair: (str(pair[0]), str(pair[1]))):
        side_a = groups_a.get(key, [])
        side_b = groups_b.get(key, [])
        victim, attacker = key
        for index in range(max(len(side_a), len(side_b))):
            request = f"{victim}<-{attacker}#{index}"
            if index >= len(side_a) or index >= len(side_b):
                differences.append({"request": request, "field": "presence",
                                    "a": index < len(side_a),
                                    "b": index < len(side_b)})
                continue
            left = side_a[index]
            right = side_b[index]
            for name, time_a in left.milestones().items():
                time_b = right.milestones()[name]
                if time_a is None and time_b is None:
                    continue
                if (time_a is None) != (time_b is None) \
                        or abs(time_a - time_b) > tolerance:
                    differences.append({"request": request, "field": name,
                                        "a": time_a, "b": time_b})
            if left.max_round != right.max_round:
                differences.append({"request": request, "field": "max_round",
                                    "a": left.max_round, "b": right.max_round})
    return differences
