"""Structured trace recording: deterministic JSONL on named channels.

A :class:`TraceRecorder` stores each record as a time and the index of its
*body* (the record without its time) in emission order — which is
simulation event order, so a trace of a seeded run is a pure function of
the spec — and renders them to flat dict records when read.
:meth:`TraceRecorder.write_jsonl` serializes one JSON object per line with
sorted keys and fixed separators; re-running the same spec yields a
byte-identical file (pinned by tests/test_obs.py).

Line 1 is a header object carrying the trace schema, the spec's name, seed
and content hash, the engine mode and the attack window start — everything
the flight recorder and ``repro trace diff`` need to line two traces up.
No wall-clock value ever enters a trace.

Record shape (all channels)::

    {"t": <sim time>, "ch": <channel>, "ev": <event name>, ...fields}

Channels:

* ``packet`` — per-packet link deliveries: link, receiving node, flow
  endpoints, size, kind.
* ``train`` — aggregated-train link deliveries: link, node, count, spacing.
* ``aitf-control`` — every protocol-event-log record (requests, filters,
  handshakes, escalations, disconnections) with its details flattened in.
* ``routing`` — route churn: per-fault reroute deltas and PATH_CHANGED
  re-targeting.
* ``fault`` — the fault injector's timeline (link/router state flips).
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.experiments.spec import OBSERVE_CHANNELS
from repro.net.address import IPAddress

#: Version tag written into trace headers; bump on incompatible change.
TRACE_SCHEMA = "trace/v1"

#: Canonical JSON for one trace line: sorted keys, no whitespace.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Body shapes (a body's first item).  The observer's packet-delivery and
#: filter-block callbacks look their bodies up in
#: :attr:`TraceRecorder.index`, so each distinct one is stored once.  Its
#: train-delivery callback appends one body per record: a train's count
#: and spacing differ on nearly every train of a congested run.  The
#: remaining shapes, one per channel, are what :meth:`TraceRecorder.emit`
#: appends, one body per record.
#:
#: * ``(PACKET_DELIVER, link, node, src, dst, size, kind, flow)``
#: * ``(TRAIN_DELIVER, link, node, src, dst, count, interval, size, flow)``
#: * ``(PACKET_BLOCK | TRAIN_BLOCK, node, src, dst, count, filter_id)``
#: * ``(_EMIT_SHAPE[channel], event, names, *values)``
#:
#: ``src``/``dst`` are ``IPAddress.value`` ints, ``kind`` is ``None`` for
#: plain data.  A per-packet body holds only ints, floats, strings and
#: ``None``; a delivery or block body repeats across records because the
#: time is not part of it.  ``names`` is the tuple of an emitted record's
#: field names, one shared tuple per distinct set, and ``values`` are its
#: field values.
PACKET_DELIVER, TRAIN_DELIVER, PACKET_BLOCK, TRAIN_BLOCK = range(4)
_SHAPE_CHANNEL = ("packet", "train", "packet", "train") + OBSERVE_CHANNELS
_EMIT_SHAPE = {channel: 4 + index
               for index, channel in enumerate(OBSERVE_CHANNELS)}


@lru_cache(maxsize=4096)
def _dotted(value: int) -> str:
    return str(IPAddress(value))


def _render_packet_deliver(t: float, body: tuple) -> Dict[str, Any]:
    _, link, node, src, dst, size, kind, flow = body
    record = {"t": t, "ch": "packet", "ev": "deliver", "link": link,
              "node": node, "src": _dotted(src), "dst": _dotted(dst),
              "size": size}
    if kind is not None:
        record["kind"] = kind
    if flow:
        record["flow"] = flow
    return record


def _render_train_deliver(t: float, body: tuple) -> Dict[str, Any]:
    _, link, node, src, dst, count, interval, size, flow = body
    record = {"t": t, "ch": "train", "ev": "deliver", "link": link,
              "node": node, "src": _dotted(src), "dst": _dotted(dst),
              "count": count, "interval": interval, "size": size}
    if flow:
        record["flow"] = flow
    return record


def _render_block(t: float, body: tuple) -> Dict[str, Any]:
    shape, node, src, dst, count, filter_id = body
    return {"t": t, "ch": _SHAPE_CHANNEL[shape], "ev": "filter_block",
            "node": node, "src": _dotted(src), "dst": _dotted(dst),
            "count": count, "filter_id": filter_id}


def _render_emit(t: float, body: tuple) -> Dict[str, Any]:
    record = {"t": t, "ch": _SHAPE_CHANNEL[body[0]], "ev": body[1]}
    record.update(zip(body[2], body[3:]))
    return record


_RENDER = (_render_packet_deliver, _render_train_deliver, _render_block,
           _render_block) + (_render_emit,) * len(OBSERVE_CHANNELS)


class _BodyIndex(dict):
    """Body -> its index in :attr:`bodies`.  Subscripting with a body not
    seen before appends it to :attr:`bodies` and returns its new index, so
    a lookup that hits runs no Python code."""

    __slots__ = ("bodies",)

    def __init__(self, bodies: List[tuple]) -> None:
        super().__init__()
        self.bodies = bodies

    def __missing__(self, body: tuple) -> int:
        index = self[body] = len(self.bodies)
        self.bodies.append(body)
        return index


class TraceRecorder:
    """Stores trace records for a set of enabled channels; renders on read.

    A record is two machine values — its time in :attr:`times` (an
    ``array('d')``) and the index of its body in :attr:`ids` (an
    ``array('I')``) — plus its body, the record without the time, in
    :attr:`bodies`.  The observer's per-packet callbacks build a body as a
    flat tuple; a link delivery or a filter block looks it up in
    :attr:`index` (which adds it when new), so a body that repeats is
    stored once, and a train delivery appends its own.  No dict, no address
    formatting and, for a repeated body, no Python object per record.  The
    rare control-plane events go through :meth:`emit`, which appends a
    body of its own: the keyword fields' names (one shared tuple per
    distinct set) and values.  Record dicts exist only while something
    reads: :meth:`records`, :meth:`iter_lines` and :meth:`write_jsonl`
    build them one at a time.  The recorder never samples or reorders —
    what you read back is exactly what the simulation emitted, in order.
    """

    def __init__(self, channels: Tuple[str, ...]) -> None:
        unknown = sorted(set(channels) - set(OBSERVE_CHANNELS))
        if unknown:
            raise ValueError(f"unknown trace channel(s): {', '.join(unknown)}")
        self.channels = tuple(channels)
        self._enabled = frozenset(channels)
        self.times = array("d")
        self.ids = array("I")
        self.bodies: List[tuple] = []
        #: Delivery or block body -> its index in :attr:`bodies` (a miss
        #: adds it).
        self.index = _BodyIndex(self.bodies)
        self._names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def wants(self, channel: str) -> bool:
        """True when ``channel`` is enabled (hook installers check once)."""
        return channel in self._enabled

    def _check_channel(self, channel: str) -> None:
        if channel not in self._enabled:
            state = "not enabled" if channel in OBSERVE_CHANNELS else "unknown"
            raise ValueError(f"trace channel {channel!r} is {state} "
                             f"(enabled: {', '.join(self.channels)})")

    def emit(self, channel: str, time: float, event: str,
             **fields: Any) -> None:
        """Append one record on an enabled ``channel`` (ValueError naming
        it otherwise).  ``fields`` become top-level record keys."""
        self._check_channel(channel)
        names = tuple(fields)
        self.times.append(time)
        self.ids.append(len(self.bodies))
        self.bodies.append((_EMIT_SHAPE[channel], event,
                            self._names.setdefault(names, names),
                            *fields.values()))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def records(self, channel: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """All records in emission order, optionally one enabled channel's
        (ValueError naming any other)."""
        bodies = self.bodies
        pairs: Iterable[Tuple[float, int]] = zip(self.times, self.ids)
        if channel is not None:
            self._check_channel(channel)
            kept = [_SHAPE_CHANNEL[body[0]] == channel for body in bodies]
            pairs = ((t, index) for t, index in pairs if kept[index])
        return (_RENDER[bodies[index][0]](t, bodies[index])
                for t, index in pairs)

    def counts(self) -> Dict[str, int]:
        """Records per enabled channel."""
        counts = dict.fromkeys(self.channels, 0)
        for index, count in Counter(self.ids).items():
            counts[_SHAPE_CHANNEL[self.bodies[index][0]]] += count
        return counts

    def summary(self) -> Dict[str, Any]:
        """The compact form serialized into ``experiment_result/v1``."""
        return {"channels": self.counts(), "records": len(self)}

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def header(self, spec: Any, *, extra: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        """The trace's line-1 header for ``spec`` (an ExperimentSpec)."""
        from repro.experiments.spec import spec_hash

        head: Dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "name": spec.name,
            "seed": spec.seed,
            "spec_hash": spec_hash(spec),
            "engine": spec.engine.mode,
            "channels": list(self.channels),
        }
        if extra:
            head.update(extra)
        return head

    def iter_lines(self, spec: Any, *, extra: Optional[Dict[str, Any]] = None
                   ) -> Iterator[str]:
        """Header + records as canonical JSON lines, one at a time."""
        return trace_lines(self.header(spec, extra=extra), self.records())

    def to_lines(self, spec: Any, *, extra: Optional[Dict[str, Any]] = None
                 ) -> List[str]:
        """Header + records as canonical JSON lines (byte-deterministic)."""
        return list(self.iter_lines(spec, extra=extra))

    def write_jsonl(self, path: str, spec: Any, *,
                    extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the trace to ``path`` as JSONL (one object per line)."""
        write_trace(path, self.header(spec, extra=extra), self.records())


def trace_lines(header: Dict[str, Any], records: Iterable[Dict[str, Any]]
                ) -> Iterator[str]:
    """``header`` then ``records`` as canonical JSON lines, lazily."""
    return map(_encode, chain((header,), records))


def write_trace(path: str, header: Dict[str, Any],
                records: Iterable[Dict[str, Any]]) -> None:
    """Write a trace file line by line; no second copy of the trace is built."""
    with open(path, "w") as handle:
        for line in trace_lines(header, records):
            handle.write(line)
            handle.write("\n")


def load_trace(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a trace file back as ``(header, records)``.

    Raises ``ValueError`` when the file is not a trace this build reads or
    a record line is damaged (undecodable, or not a JSON object).
    """
    with open(path) as handle:
        first = handle.readline()
        if not first.strip():
            raise ValueError(f"{path} is empty, not a trace")
        header = json.loads(first)
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"{path} is not a trace file (expected schema {TRACE_SCHEMA!r}, "
                f"got {header.get('schema') if isinstance(header, dict) else first[:40]!r})")
        records = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: undecodable trace record ({exc})"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace record is not a JSON object "
                    f"(got {type(record).__name__})")
            records.append(record)
    return header, records


def store_footprint(spec: Any) -> Dict[str, Any]:
    """Run ``spec`` (an ExperimentSpec that enables a trace channel) under
    ``tracemalloc`` and size its recorder's store: records, bodies stored,
    and the bytes per record that emptying the store gives back.  The run
    is thrown away."""
    import gc
    import tracemalloc

    from repro.experiments.runner import ExperimentRunner

    gc.collect()
    tracemalloc.start()
    try:
        execution = ExperimentRunner().prepare(spec)
        execution.run()
        recorder = execution.observer.recorder
        records, bodies = len(recorder), len(recorder.bodies)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del recorder.times[:], recorder.ids[:], recorder.bodies[:]
        recorder.index.clear()
        recorder._names.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"records": records, "bodies": bodies,
            "bytes_per_record": held / records}
