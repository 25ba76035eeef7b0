"""Declarative experiment specifications.

An :class:`ExperimentSpec` names everything one run needs — a topology, a
defense backend, a set of workloads, the AITF timing parameters, the
detection delay, the horizon and the seed — as plain data.  Specs round-trip
through JSON (``to_json`` / ``from_json``), which is what makes shell-script
sweeps, the ``repro run --spec`` CLI and the parallel sweep runner possible:
a spec can be written to a file, edited, diffed, and shipped to a worker
process without any Python object crossing the boundary.

The names inside a spec (``topology.kind``, ``defense.backend``,
``workloads[].kind``, ``collectors[].kind``) are checked against the
registries in :mod:`repro.experiments.registry` when the spec is parsed, so
a spec referring to a backend that does not exist fails there with a message
listing the valid choices, as does a parameter name no entry declares.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _encode_str
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import AITFConfig
# The builder modules fill the registries the parameter check reads.
from repro.experiments import backends, collectors, topologies, workloads  # noqa: F401
from repro.experiments.registry import COLLECTORS, DEFENSES, TOPOLOGIES, WORKLOADS, Registry

#: Version tag written into serialized specs; bump on incompatible change.
SPEC_SCHEMA = "experiment_spec/v1"

#: The ``aitf`` block's parameters: the fields of :class:`AITFConfig`.
AITF_PARAMETERS = frozenset(f.name for f in fields(AITFConfig))


def _params_dict(params: Optional[Mapping[str, Any]],
                 known: Optional[AbstractSet[str]] = None,
                 component: str = "") -> Dict[str, Any]:
    """``params`` as a dict, refusing any name outside ``known`` (when
    given) as one ``component`` does not declare."""
    params = dict(params) if params else {}
    unknown = sorted(set(params) - known) if known is not None else ()
    if unknown:
        raise ValueError(f"unknown {component} parameter(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(known)) or 'none'})")
    return params


def _entry_params(registry: Registry, kind: str,
                  params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """``params`` checked against registry entry ``kind``, names and value
    types (ValueError naming the registered choices when ``kind`` is not
    one)."""
    params = _params_dict(params, registry.parameters(kind),
                          f"{registry.kind} {kind!r}")
    registry.check_values(kind, params)
    return params


@dataclass
class TopologySpec:
    """Which network to build, by registry name, plus builder parameters."""

    kind: str = "figure1"
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": copy.deepcopy(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        _reject_unknown_keys(data, {"kind", "params"}, "topology")
        kind = data.get("kind", "figure1")
        return cls(kind=kind, params=_entry_params(TOPOLOGIES, kind, data.get("params")))


@dataclass
class DefenseSpec:
    """Which defense backend to install, by registry name, plus parameters."""

    backend: str = "aitf"
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"backend": self.backend, "params": copy.deepcopy(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DefenseSpec":
        _reject_unknown_keys(data, {"backend", "params"}, "defense")
        # Every backend's names: one params block survives a
        # ``defense.backend`` axis (each backend takes only its own, so
        # only the chosen one's values are checked).
        known = frozenset().union(*map(DEFENSES.parameters, DEFENSES))
        params = _params_dict(data.get("params"), known, "defense")
        backend = data.get("backend", "aitf")
        DEFENSES.check_values(backend, params)
        return cls(backend=backend, params=params)


@dataclass
class WorkloadSpec:
    """One traffic source (attack or legitimate), by registry name."""

    kind: str = "flood"
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": copy.deepcopy(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _reject_unknown_keys(data, {"kind", "params"}, "workload")
        if "kind" not in data:
            raise ValueError("workload spec requires a 'kind'")
        return cls(kind=data["kind"], params=_entry_params(
            WORKLOADS, data["kind"], data.get("params")))


@dataclass
class CollectorSpec:
    """One metric collector (occupancy sampler, request accounting, paper
    formulas), by registry name."""

    kind: str = "filter-occupancy"
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": copy.deepcopy(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CollectorSpec":
        _reject_unknown_keys(data, {"kind", "params"}, "collector")
        if "kind" not in data:
            raise ValueError("collector spec requires a 'kind'")
        return cls(kind=data["kind"], params=_entry_params(
            COLLECTORS, data["kind"], data.get("params")))


#: Fault kinds a spec may schedule.
FAULT_KINDS = ("link_down", "link_up", "router_crash", "router_recover")


@dataclass
class FaultSpec:
    """One scheduled fault event (fault injection / route churn).

    ``kind`` selects what happens; the target is a ``link`` (two endpoint
    node names) for the link kinds or a ``node`` name for the router kinds.
    The event fires at ``time`` seconds, or — when ``window`` = ``[a, b]``
    is given instead — at a seed-derived uniform draw inside the window
    (drawn from an independent stream keyed on the experiment seed, so fault
    timing never perturbs workload randomness).
    """

    kind: str = "link_down"
    time: Optional[float] = None
    window: Optional[Tuple[float, float]] = None
    link: Optional[Tuple[str, str]] = None
    node: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(choose from {', '.join(FAULT_KINDS)})")
        if (self.time is None) == (self.window is None):
            raise ValueError(f"fault {self.kind!r} needs exactly one of "
                             f"'time' or 'window'")
        if self.time is not None:
            self.time = float(self.time)
            if self.time < 0:
                raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.window is not None:
            window = tuple(float(t) for t in self.window)
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ValueError(f"fault window must be [a, b] with "
                                 f"0 <= a < b, got {list(self.window)}")
            self.window = window
        link_kind = self.kind in ("link_down", "link_up")
        if link_kind:
            if self.link is None or self.node is not None:
                raise ValueError(f"fault {self.kind!r} targets a 'link' "
                                 f"(two node names), not a 'node'")
            link = tuple(str(n) for n in self.link)
            if len(link) != 2:
                raise ValueError(f"fault link must name two endpoints, "
                                 f"got {list(self.link)}")
            self.link = link
        else:
            if self.node is None or self.link is not None:
                raise ValueError(f"fault {self.kind!r} targets a 'node', "
                                 f"not a 'link'")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.time is not None:
            data["time"] = self.time
        if self.window is not None:
            data["window"] = list(self.window)
        if self.link is not None:
            data["link"] = list(self.link)
        if self.node is not None:
            data["node"] = self.node
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        _reject_unknown_keys(data, {"kind", "time", "window", "link", "node"},
                             "fault")
        if "kind" not in data:
            raise ValueError("fault spec requires a 'kind'")
        return cls(kind=data["kind"],
                   time=data.get("time"),
                   window=data.get("window"),
                   link=data.get("link"),
                   node=data.get("node"))


#: Trace channels an ``observe`` block may enable (see :mod:`repro.obs`).
OBSERVE_CHANNELS = ("packet", "train", "aitf-control", "routing", "fault")


@dataclass
class ObserveSpec:
    """What the observability plane records during a run (see :mod:`repro.obs`).

    ``channels`` enables structured trace channels; ``metrics`` turns on the
    metrics registry (counters / gauges / sampled series); ``sample_period``
    is the gauge-sampling cadence in seconds.  The empty default is omitted
    from the serialized spec, so specs that observe nothing serialize (and
    therefore hash) exactly as they did before observability existed — no
    golden value, cell-cache key or committed sweep document moves.
    """

    channels: Tuple[str, ...] = ()
    metrics: bool = False
    sample_period: float = 0.1

    def __post_init__(self) -> None:
        self.channels = tuple(self.channels)
        unknown = sorted(set(self.channels) - set(OBSERVE_CHANNELS))
        if unknown:
            raise ValueError(f"unknown observe channel(s): {', '.join(unknown)} "
                             f"(choose from {', '.join(OBSERVE_CHANNELS)})")
        self.sample_period = float(self.sample_period)
        if self.sample_period <= 0:
            raise ValueError(f"observe sample_period must be positive, "
                             f"got {self.sample_period}")

    @property
    def enabled(self) -> bool:
        """True when the run should build any observability machinery."""
        return bool(self.channels) or self.metrics

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.channels:
            data["channels"] = list(self.channels)
        if self.metrics:
            data["metrics"] = True
        if self.sample_period != 0.1:
            data["sample_period"] = self.sample_period
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObserveSpec":
        _reject_unknown_keys(data, {"channels", "metrics", "sample_period"},
                             "observe")
        return cls(channels=tuple(data.get("channels", ())),
                   metrics=bool(data.get("metrics", False)),
                   sample_period=float(data.get("sample_period", 0.1)))


#: Engine modes a spec may select.
ENGINE_MODES = ("packet", "train")

#: Why an ``engine.shards`` key fails: the option is gone, not unknown.
SHARDS_REMOVED = (
    "engine.shards is no longer accepted: sharded execution was removed "
    "because it ran slower than serial and than a sweep's worker pool "
    "(PERFORMANCE.md, \"Sharded execution (removed)\"); run cells in "
    "parallel with --workers or --cluster instead")


@dataclass
class EngineSpec:
    """How the simulator executes traffic: per-packet or aggregated trains.

    ``packet`` (the default) is the exact per-packet event engine — the
    mode every golden determinism test pins.  ``train`` aggregates
    homogeneous traffic into :class:`~repro.net.train.PacketTrain` objects
    of up to ``max_train`` packets that cross links and routers as single
    events, trading sub-train timing fidelity under congestion for an
    order of magnitude in throughput (see PERFORMANCE.md, "Train mode").
    """

    mode: str = "packet"
    max_train: int = 256
    #: Optional upper bound (seconds) on the time a single train may span,
    #: alongside the packet-count bound.  Fault-injection runs use it so no
    #: train straddles a long interval a fault could land inside.  ``None``
    #: (the default) is omitted from the serialized form, keeping spec
    #: hashes of existing experiments unchanged.
    max_span: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {self.mode!r} "
                             f"(choose from {', '.join(ENGINE_MODES)})")
        if self.max_train < 1:
            raise ValueError(f"max_train must be >= 1, got {self.max_train}")
        if self.max_span is not None:
            self.max_span = float(self.max_span)
            if self.max_span <= 0:
                raise ValueError(f"max_span must be positive, got {self.max_span}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"mode": self.mode, "max_train": self.max_train}
        if self.max_span is not None:
            data["max_span"] = self.max_span
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        if "shards" in data:
            raise ValueError(SHARDS_REMOVED)
        _reject_unknown_keys(data, {"mode", "max_train", "max_span"}, "engine")
        return cls(mode=data.get("mode", "packet"),
                   max_train=int(data.get("max_train", 256)),
                   max_span=data.get("max_span"))


@dataclass
class ExperimentSpec:
    """A complete, JSON-round-trippable description of one experiment.

    Attributes
    ----------
    name:
        Free-form label carried into results.
    topology / defense / workloads / collectors:
        Registry references (see :mod:`repro.experiments.registry`).
        Collectors are optional measurement instruments — occupancy
        samplers, request accounting, the paper's provisioning formulas —
        whose output lands in ``ExperimentResult.collector_stats``.
    aitf:
        Overrides for :class:`repro.core.config.AITFConfig` fields
        (``filter_timeout``, ``temporary_filter_timeout``, ...).  Applied
        whenever the experiment needs an AITF configuration — by the ``aitf``
        backend and by workloads whose defaults derive from Ttmp (on-off).
    detection_delay:
        Td — the delay between attack start (or first undesired packet) and
        the defense reacting; consumed by the aitf, pushback and manual
        backends.
    duration:
        Simulated horizon in seconds (the CLI can override at run time).
    seed:
        Root seed for every stochastic component of the run.
    engine:
        Execution engine selection (:class:`EngineSpec`): the exact
        per-packet default, or opt-in packet-train aggregation for
        fleet-scale scenarios.
    faults:
        Schedule of :class:`FaultSpec` events (link failures/recoveries,
        router crashes) executed by :mod:`repro.faults`.  Empty (the
        default) is omitted from the serialized form, so specs without
        faults hash exactly as before and pay no fault-machinery cost.
    observe:
        Observability selection (:class:`ObserveSpec`): trace channels and
        the metrics registry, recorded by :mod:`repro.obs`.  The empty
        default is omitted from the serialized form — specs that observe
        nothing hash exactly as before, and the hot paths install no hooks.
    sample_occupancy:
        Attach filter-table occupancy samplers at the victim's and
        attacker's gateways (the flood experiments want this; pure
        protocol-timing experiments can switch it off).
    """

    name: str = "experiment"
    topology: TopologySpec = field(default_factory=TopologySpec)
    defense: DefenseSpec = field(default_factory=DefenseSpec)
    workloads: Tuple[WorkloadSpec, ...] = ()
    collectors: Tuple[CollectorSpec, ...] = ()
    aitf: Dict[str, Any] = field(default_factory=dict)
    detection_delay: float = 0.1
    duration: float = 10.0
    seed: int = 0
    engine: EngineSpec = field(default_factory=EngineSpec)
    faults: Tuple[FaultSpec, ...] = ()
    observe: ObserveSpec = field(default_factory=ObserveSpec)
    sample_occupancy: bool = True

    def __post_init__(self) -> None:
        self.workloads = tuple(self.workloads)
        self.collectors = tuple(self.collectors)
        self.faults = tuple(self.faults)
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.detection_delay < 0:
            raise ValueError("detection_delay must be non-negative")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, including the schema tag.

        ``faults`` and ``observe`` appear only when non-empty: specs with no
        faults and nothing observed serialize (and therefore hash) exactly
        as they did before either subsystem existed, which keeps the cluster
        cell cache and every golden determinism value valid.
        """
        data = {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "topology": self.topology.to_dict(),
            "defense": self.defense.to_dict(),
            "workloads": [w.to_dict() for w in self.workloads],
            "collectors": [c.to_dict() for c in self.collectors],
            "aitf": copy.deepcopy(self.aitf),
            "detection_delay": self.detection_delay,
            "duration": self.duration,
            "seed": self.seed,
            "engine": self.engine.to_dict(),
            "sample_occupancy": self.sample_occupancy,
        }
        if self.faults:
            data["faults"] = [f.to_dict() for f in self.faults]
        if self.observe.enabled:
            data["observe"] = self.observe.to_dict()
        return data

    def to_json(self) -> str:
        """The spec as a JSON document (:func:`document_json`)."""
        return document_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_dict` form (schema-checked)."""
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(
                f"unsupported spec schema {schema!r} (this build reads {SPEC_SCHEMA!r})"
            )
        known = {"schema", "name", "topology", "defense", "workloads",
                 "collectors", "aitf", "detection_delay", "duration", "seed",
                 "engine", "faults", "observe", "sample_occupancy"}
        _reject_unknown_keys(data, known, "experiment")
        seed = data.get("seed", 0)
        if type(seed) is not int:  # a bool, a float or a string is no seed
            raise ValueError(f"bad experiment spec value: seed={seed!r} "
                             "(want an integer)")
        return cls(
            name=data.get("name", "experiment"),
            topology=TopologySpec.from_dict(data.get("topology", {})),
            defense=DefenseSpec.from_dict(data.get("defense", {})),
            workloads=tuple(WorkloadSpec.from_dict(w)
                            for w in data.get("workloads", [])),
            collectors=tuple(CollectorSpec.from_dict(c)
                             for c in data.get("collectors", [])),
            aitf=_params_dict(data.get("aitf"), AITF_PARAMETERS, "aitf"),
            detection_delay=float(data.get("detection_delay", 0.1)),
            duration=float(data.get("duration", 10.0)),
            seed=seed,
            engine=EngineSpec.from_dict(data.get("engine", {})),
            faults=tuple(FaultSpec.from_dict(f)
                         for f in data.get("faults", [])),
            observe=ObserveSpec.from_dict(data.get("observe", {})),
            sample_occupancy=bool(data.get("sample_occupancy", True)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        """Write the spec to a JSON file."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentSpec":
        """A copy with dotted-path overrides applied (see :func:`apply_override`).

        Example: ``spec.with_overrides({"defense.backend": "pushback",
        "workloads.0.params.rate_pps": 3000})``.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            apply_override(data, path, value)
        return ExperimentSpec.from_dict(data)


def apply_override(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at a dotted ``path`` inside a spec dict, in place.

    Path segments index dicts by key and lists by integer
    (``workloads.1.params.rate_pps``).  Intermediate dict keys that are
    missing but legal (e.g. an empty ``params``) are created; a segment that
    neither exists nor can be created raises ``ValueError`` naming the path.
    """
    segments = path.split(".")
    node: Any = data
    for index, segment in enumerate(segments[:-1]):
        if isinstance(node, list):
            node = _list_item(node, segment, path)
        elif isinstance(node, dict):
            if segment not in node:
                node[segment] = {}
            node = node[segment]
        else:
            raise ValueError(
                f"cannot descend into {'.'.join(segments[:index + 1])!r} "
                f"(not a dict or list) while applying {path!r}"
            )
    leaf = segments[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, path)] = value
    elif isinstance(node, dict):
        node[leaf] = value
    else:
        raise ValueError(f"cannot set {path!r}: parent is not a dict or list")


def _list_index(node: List[Any], segment: str, path: str) -> int:
    try:
        index = int(segment)
    except ValueError:
        raise ValueError(f"{segment!r} in {path!r} must be a list index") from None
    if not -len(node) <= index < len(node):
        raise ValueError(f"index {index} in {path!r} is out of range "
                         f"(list has {len(node)} items)")
    return index


def _list_item(node: List[Any], segment: str, path: str) -> Any:
    return node[_list_index(node, segment, path)]


def _reject_unknown_keys(data: Mapping[str, Any], known: set, where: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {where} spec key(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(known))})")


# ----------------------------------------------------------------------
# canonical form and content hashing
# ----------------------------------------------------------------------
def canonical_spec_json(spec: Union["ExperimentSpec", Mapping[str, Any]]) -> str:
    """The spec's canonical JSON text.

    The spec (object or dict) is first round-tripped through
    :meth:`ExperimentSpec.from_dict`, which normalises the spec's own fields
    (``duration`` to float, omitted fields filled in; unknown keys and
    parameters, and a seed that is not an int, rejected), then dumped with
    sorted keys and fixed separators, whatever the key order or the process
    that wrote it.
    Component params and the ``aitf`` block stay as written: omitting
    ``start`` and writing ``"start": 0.0`` give two texts, so two hashes
    (filling in builder defaults would move every committed spec's hash).
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_dict(spec)
    return _canonical_text(spec.to_dict())


def _canonical_text(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_int_repr = int.__repr__
_float_repr = float.__repr__
_INFINITY = float("inf")


def document_json(value: Any) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``.

    Every sorted, indented document the project writes (sweep documents
    and their provenance sidecars, spec files, red-team documents, the
    CLI's sorted ``--json`` prints) goes through here.  With ``indent``
    set, stdlib falls back to its generator-based pure-Python encoder, one
    generator resumption per value; this one makes a Python call per
    container and hands exact ``str`` / ``int`` / finite ``float`` items
    straight to C.  The text is byte-identical to stdlib's for every
    JSON-native value (subclasses, enums, non-str keys, ``NaN`` and
    ``±Infinity`` included, pinned in ``tests/test_properties.py``); an
    :class:`EncodedJSON` is spliced in as the text it carries, and any
    other type raises stdlib's ``TypeError``.  A cyclic value raises
    ``RecursionError``, not stdlib's ``ValueError``.
    """
    parts: List[str] = []
    _write_json(value, parts, "\n")
    return "".join(parts)


class EncodedJSON:
    """A value already encoded by :func:`document_json`, to be spliced into
    a larger document instead of encoded again.

    The text is re-indented to the depth it lands at, by prefixing every
    line break with that depth's indent; every line break in it is
    structural (a JSON string escapes its own), so the result is the text
    of the original value at that depth, byte for byte.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _write_json(value: Any, parts: List[str], newline: str) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` is a line break
    plus the indent of the line ``value`` starts on.  The checks and their
    order are stdlib's (``json.encoder._make_iterencode``)."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(_int_repr(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        append = parts.append
        inner = newline + "  "
        comma = "," + inner
        head = "[" + inner
        for item in value:
            append(head)
            head = comma
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(_int_repr(item))
            elif kind is float and item - item == 0.0:  # finite
                append(_float_repr(item))
            else:
                _write_json(item, parts, inner)
        append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        append = parts.append
        inner = newline + "  "
        comma = "," + inner
        head = "{" + inner
        for key, item in sorted(value.items()):
            append(head)
            head = comma
            append(_encode_str(key) if type(key) is str else _key_text(key))
            append(": ")
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(_int_repr(item))
            elif kind is float and item - item == 0.0:  # finite
                append(_float_repr(item))
            else:
                _write_json(item, parts, inner)
        append(newline + "}")
    elif type(value) is EncodedJSON:
        parts.append(value.text.replace("\n", newline))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_repr(value)


def _key_text(key: Any) -> str:
    """A dict key's quoted text, converted as stdlib converts it."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(_int_repr(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def spec_hash(spec: Union["ExperimentSpec", Mapping[str, Any]]) -> str:
    """SHA-256 hex digest of the canonical spec JSON.

    This is the content address of a sweep cell: the cluster result cache
    is keyed by it, so a cell re-runs when its canonical text changed (see
    :func:`canonical_spec_json`).  Stable across key order, worker processes
    and ``PYTHONHASHSEED``.
    """
    return hashlib.sha256(canonical_spec_json(spec).encode("utf-8")).hexdigest()


def rendered_spec_hash(data: Mapping[str, Any]) -> str:
    """:func:`spec_hash` of ``data``, a dict :meth:`ExperimentSpec.to_dict`
    rendered.  That dict is the canonical form already, so it is hashed as
    it is, without another round trip through
    :meth:`ExperimentSpec.from_dict`."""
    return hashlib.sha256(_canonical_text(data).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# canonical specs
# ----------------------------------------------------------------------
def default_flood_spec(
    *,
    topology: str = "figure1",
    defense: str = "aitf",
    attack_pps: float = 1500.0,
    attack_packet_size: int = 1000,
    attack_start: float = 0.5,
    legit_pps: float = 400.0,
    detection_delay: float = 0.1,
    duration: float = 10.0,
    seed: int = 0,
    filter_timeout: float = 60.0,
    temporary_filter_timeout: float = 1.0,
    non_cooperating: Sequence[str] = ("B_host",),
    topology_params: Optional[Mapping[str, Any]] = None,
    defense_params: Optional[Mapping[str, Any]] = None,
    name: str = "flood-defense",
) -> ExperimentSpec:
    """The paper's canonical experiment: one flood plus legitimate traffic
    on the Figure-1 topology, under any registered defense backend.

    This is the spec behind ``repro run`` defaults, the E1/E6/E11
    benchmarks and the flood engine benchmarks — one definition, many
    harnesses.

    ``topology`` may name any registered topology.  The figure1-specific
    defaults (an extra good host for legitimate traffic, ``B_host`` refusing
    to cooperate) only apply on figure1; other topologies start from their
    builders' defaults, with every node cooperative.
    """
    topo_params: Dict[str, Any] = {"extra_good_hosts": 1} if topology == "figure1" else {}
    topo_params.update(topology_params or {})
    d_params: Dict[str, Any] = {}
    if defense == "aitf" and topology == "figure1":
        d_params["non_cooperating"] = list(non_cooperating)
    d_params.update(defense_params or {})
    return ExperimentSpec(
        name=name,
        topology=TopologySpec(topology, topo_params),
        defense=DefenseSpec(defense, d_params),
        workloads=(
            WorkloadSpec("legitimate", {"rate_pps": legit_pps,
                                        "packet_size": 1000, "start": 0.0}),
            WorkloadSpec("flood", {"rate_pps": attack_pps,
                                   "packet_size": attack_packet_size,
                                   "start": attack_start}),
        ),
        aitf={"filter_timeout": filter_timeout,
              "temporary_filter_timeout": temporary_filter_timeout},
        detection_delay=detection_delay,
        duration=duration,
        seed=seed,
    )


def default_onoff_spec(
    *,
    shadow_enabled: bool = True,
    duration: float = 20.0,
    seed: int = 0,
) -> ExperimentSpec:
    """Experiment E7 (Sections II-B, IV-A.1 with n >= 1): an on-off attacker
    behind a non-cooperating gateway on the Figure-1 topology.

    The attacker's cadence hugs the temporary-filter lifetime (Ttmp = 0.5 s):
    it stops early enough (0.5 Ttmp) that the victim's gateway believes the
    attacker's gateway took over, stays silent until the temporary filter
    has lapsed (1.5 Ttmp), then resumes.  ``shadow_enabled=False`` ablates
    the DRAM shadow cache that keeps the effective bandwidth bounded.
    Committed as ``examples/specs/onoff_aitf.json``.
    """
    ttmp = 0.5
    return ExperimentSpec(
        name="onoff",
        topology=TopologySpec("figure1", {}),
        defense=DefenseSpec("aitf", {
            "non_cooperating": ["B_host", "B_gw1"],
            "disconnection_enabled": False,
            "shadow_enabled": shadow_enabled,
        }),
        workloads=(
            WorkloadSpec("onoff", {
                "rate_pps": 1000.0,
                "on_duration": ttmp * 0.5,
                "off_duration": ttmp * 1.5,
                "start": 0.2,
            }),
        ),
        aitf={"filter_timeout": 30.0,
              "temporary_filter_timeout": ttmp,
              "attacker_grace_period": 1.0},
        detection_delay=0.05,
        duration=duration,
        seed=seed,
        # Occupancy sampling purges expired filter entries eagerly; staying
        # off keeps the event sequence bit-identical to the golden recording.
        sample_occupancy=False,
    )


def default_victim_resource_spec(
    *,
    request_rate: float = 100.0,
    sources: int = 50,
    cooperative_attacker_side: bool = True,
    duration: float = 5.0,
    seed: int = 0,
    aitf: Optional[Mapping[str, Any]] = None,
    name: str = "victim-gateway-resources",
) -> ExperimentSpec:
    """Experiments E2/E3 (Sections IV-A.2, IV-B): the victim's gateway is
    driven with filtering requests at the contract rate R1 while its
    wire-speed filter table and DRAM shadow cache are sampled.

    ``aitf`` replaces the default configuration (filter timeout 60 s, Ttmp
    0.6 s, contract rates equal to ``request_rate``).  Committed as
    ``examples/specs/victim_resources.json``; the E2/E3 grids are built
    from it.
    """
    aitf_config: Dict[str, Any] = dict(aitf) if aitf else {
        "filter_timeout": 60.0,
        "temporary_filter_timeout": 0.6,
        "default_accept_rate": request_rate,
        "default_send_rate": request_rate,
    }
    non_cooperating = [] if cooperative_attacker_side else ["source_gw"]
    return ExperimentSpec(
        name=name,
        topology=TopologySpec("dumbbell", {"sources": sources}),
        defense=DefenseSpec("aitf", {"non_cooperating": non_cooperating}),
        workloads=(
            WorkloadSpec("filter-requests", {"rate": request_rate}),
        ),
        collectors=(
            CollectorSpec("filter-occupancy", {
                "node": "victim_gateway", "period": 0.05,
                "id": "victim-gw-filters"}),
            CollectorSpec("shadow-occupancy", {
                "period": 0.05, "id": "victim-gw-shadow"}),
            CollectorSpec("request-accounting", {"id": "requests"}),
            CollectorSpec("paper-formulas", {"id": "paper"}),
        ),
        aitf=aitf_config,
        detection_delay=0.0,
        duration=duration,
        seed=seed,
        sample_occupancy=False,
    )


def default_attacker_resource_spec(
    *,
    request_rate: float = 1.0,
    filter_timeout: float = 60.0,
    duration: float = 10.0,
    seed: int = 0,
    aitf: Optional[Mapping[str, Any]] = None,
    name: str = "attacker-gateway-resources",
) -> ExperimentSpec:
    """Experiments E4/E5 (Sections IV-C, IV-D): the attacker's gateway (and
    the attacker host itself) honours filtering requests arriving at rate R2
    while both filter tables are sampled against na = R2*T.

    Committed as ``examples/specs/attacker_resources.json``; the E4/E5 grid
    is built from it.
    """
    aitf_config: Dict[str, Any] = dict(aitf) if aitf else {
        "filter_timeout": filter_timeout,
        "temporary_filter_timeout": 0.6,
        "default_accept_rate": max(100.0, request_rate * 2),
        "default_send_rate": max(100.0, request_rate * 2),
        "verification_enabled": False,
    }
    return ExperimentSpec(
        name=name,
        topology=TopologySpec("dumbbell", {"sources": 1}),
        defense=DefenseSpec("aitf", {}),
        workloads=(
            WorkloadSpec("filter-requests", {"rate": request_rate}),
        ),
        collectors=(
            CollectorSpec("filter-occupancy", {
                "node": "source_gw", "period": 0.1,
                "id": "attacker-gw-filters"}),
            CollectorSpec("host-filter-occupancy", {
                "host": "src0", "period": 0.1, "id": "attacker-host-filters"}),
            CollectorSpec("request-accounting", {
                "node": "source_gw", "id": "requests"}),
            CollectorSpec("paper-formulas", {"id": "paper"}),
        ),
        aitf=aitf_config,
        detection_delay=0.0,
        duration=duration,
        seed=seed,
        sample_occupancy=False,
    )
