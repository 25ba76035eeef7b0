"""Structured trace recording: deterministic JSONL on named channels.

A :class:`TraceRecorder` buffers compact rows in emission order — which is
simulation event order, so a trace of a seeded run is a pure function of
the spec — and renders them to flat dict records when read.  :meth:`TraceRecorder.write_jsonl` serializes one JSON object per
line with sorted keys and fixed separators; re-running the same spec yields
a byte-identical file (pinned by tests/test_obs.py).

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
from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.experiments.spec import OBSERVE_CHANNELS
from repro.net.address import IPAddress

#: Version tag written into trace headers; bump on incompatible change.
TRACE_SCHEMA = "trace/v1"

#: Canonical JSON for one trace line: sorted keys, no whitespace.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Row shapes (a row's first item).  The four per-packet shapes are appended
#: by the observer's hot callbacks through :attr:`TraceRecorder.row`; the
#: remaining ones, one per channel, are what :meth:`TraceRecorder.emit`
#: stores.
#:
#: * ``(PACKET_DELIVER, t, link, node, src, dst, size, kind, flow)``
#: * ``(TRAIN_DELIVER, t, link, node, src, dst, count, interval, size, flow)``
#: * ``(PACKET_BLOCK | TRAIN_BLOCK, t, node, src, dst, count, filter_id)``
#: * ``(_EMIT_SHAPE[channel], t, event, fields)``
#:
#: ``src``/``dst`` are ``IPAddress.value`` ints, ``kind`` is ``None`` for
#: plain data.  A per-packet row holds only ints, floats, strings and
#: ``None``, so the cyclic collector untracks it at its first pass.
PACKET_DELIVER, TRAIN_DELIVER, PACKET_BLOCK, TRAIN_BLOCK = range(4)
_SHAPE_CHANNEL = ("packet", "train", "packet", "train") + OBSERVE_CHANNELS
_EMIT_SHAPE = {channel: 4 + index
               for index, channel in enumerate(OBSERVE_CHANNELS)}
_shape_of = itemgetter(0)


@lru_cache(maxsize=4096)
def _dotted(value: int) -> str:
    return str(IPAddress(value))


def _render_packet_deliver(row: tuple) -> Dict[str, Any]:
    _, t, link, node, src, dst, size, kind, flow = row
    record = {"t": t, "ch": "packet", "ev": "deliver", "link": link,
              "node": node, "src": _dotted(src), "dst": _dotted(dst),
              "size": size}
    if kind is not None:
        record["kind"] = kind
    if flow:
        record["flow"] = flow
    return record


def _render_train_deliver(row: tuple) -> Dict[str, Any]:
    _, t, link, node, src, dst, count, interval, size, flow = row
    record = {"t": t, "ch": "train", "ev": "deliver", "link": link,
              "node": node, "src": _dotted(src), "dst": _dotted(dst),
              "count": count, "interval": interval, "size": size}
    if flow:
        record["flow"] = flow
    return record


def _render_block(row: tuple) -> Dict[str, Any]:
    shape, t, node, src, dst, count, filter_id = row
    return {"t": t, "ch": _SHAPE_CHANNEL[shape], "ev": "filter_block",
            "node": node, "src": _dotted(src), "dst": _dotted(dst),
            "count": count, "filter_id": filter_id}


def _render_emit(row: tuple) -> Dict[str, Any]:
    shape, t, event, fields = row
    return {"t": t, "ch": _SHAPE_CHANNEL[shape], "ev": event, **fields}


_RENDER = (_render_packet_deliver, _render_train_deliver, _render_block,
           _render_block) + (_render_emit,) * len(OBSERVE_CHANNELS)


class TraceRecorder:
    """Buffers trace rows for a set of enabled channels; renders on read.

    One list holds every event in emission order as a tuple whose first
    item is its shape.  The per-packet events (link deliveries, filter
    blocks) are appended by the observer through :attr:`row` as flat tuples
    of ints, floats and strings — one tuple build and one list append, no
    dict, no address formatting.  The rare control-plane events go through
    :meth:`emit`, which stores its keyword fields as they come.  Record
    dicts exist only while something reads: :meth:`records`,
    :meth:`iter_lines` and :meth:`write_jsonl` build them one at a time.
    The recorder never samples or reorders — what you read back is exactly
    what the simulation emitted, in order.
    """

    def __init__(self, channels: Tuple[str, ...]) -> None:
        unknown = sorted(set(channels) - set(OBSERVE_CHANNELS))
        if unknown:
            raise ValueError(f"unknown trace channel(s): {', '.join(unknown)}")
        self.channels = tuple(channels)
        self._enabled = frozenset(channels)
        self._rows: List[tuple] = []
        #: Append one per-packet row (see the shape table above).
        self.row = self._rows.append

    def wants(self, channel: str) -> bool:
        """True when ``channel`` is enabled (hook installers check once)."""
        return channel in self._enabled

    def emit(self, channel: str, time: float, event: str,
             **fields: Any) -> None:
        """Append one record.  ``fields`` become top-level record keys."""
        self._rows.append((_EMIT_SHAPE[channel], time, event, fields))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def records(self, channel: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """All records in emission order, optionally one channel's."""
        rows: Iterable[tuple] = self._rows
        if channel is not None:
            shapes = {shape for shape, name in enumerate(_SHAPE_CHANNEL)
                      if name == channel}
            rows = (row for row in rows if row[0] in shapes)
        return (_RENDER[row[0]](row) for row in rows)

    def counts(self) -> Dict[str, int]:
        """Records per enabled channel."""
        counts = dict.fromkeys(self.channels, 0)
        for shape, count in Counter(map(_shape_of, self._rows)).items():
            counts[_SHAPE_CHANNEL[shape]] += count
        return counts

    def summary(self) -> Dict[str, Any]:
        """The compact form serialized into ``experiment_result/v1``."""
        return {"channels": self.counts(), "records": len(self._rows)}

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
