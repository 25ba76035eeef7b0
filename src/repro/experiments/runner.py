"""Execute an :class:`ExperimentSpec` and produce an :class:`ExperimentResult`.

The runner is the single harness behind the CLI, the sweep runner, the
paper benchmarks and the engine benchmarks.  It wires an experiment in a
fixed, documented order — topology, defense deploy, workloads, defense arm,
meters — and starts traffic in spec order followed by the occupancy
samplers.  That order matters: it is the construction/start sequence the
golden determinism values were recorded under, so changing it moves
metrics.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.analysis.metrics import FlowMeter, GoodputMeter, OccupancySampler
from repro.core.config import AITFConfig
from repro.experiments.backends import DefenseBackend, build_backend
from repro.experiments.collectors import MetricCollector, build_collector
from repro.experiments.spec import ExperimentSpec
from repro.experiments.topologies import TopologyHandle, build_topology
from repro.experiments.workloads import WorkloadHandle, build_workload
from repro.router.nodes import BorderRouter
from repro.sim.engine import Simulator
from repro.sim.randomness import SeededRandom

#: Version tag written into serialized results; bump on incompatible change.
RESULT_SCHEMA = "experiment_result/v1"


@dataclass
class ExperimentResult:
    """The uniform result of one experiment, whatever the defense was.

    Every backend reports the same top-level metric names, so results from
    an AITF run and a Pushback run land in the same table / JSON shape and
    ``repro compare`` and ``repro sweep`` need no per-backend code.
    """

    schema: str
    name: str
    topology: str
    defense: str
    duration: float
    seed: int
    attack_offered_bps: float
    attack_received_bps: float
    effective_bandwidth_ratio: float
    legit_offered_bps: float
    legit_goodput_bps: float
    legit_delivery_ratio: float
    time_to_first_block: Optional[float]
    nodes_involved: int
    control_messages: int
    victim_gateway_peak_filters: Optional[float]
    attacker_gateway_peak_filters: Optional[float]
    #: Packets lost to administratively-down links (fault injection),
    #: summed over every link direction — 0 on fault-free runs.  Surfaced
    #: here so ``repro report`` tables can show it without digging through
    #: per-link stats.
    packets_dropped_down: int = 0
    defense_stats: Dict[str, Any] = field(default_factory=dict)
    workload_stats: List[Dict[str, Any]] = field(default_factory=list)
    collector_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Trace-channel counts and the metrics-registry snapshot when the
    #: spec's ``observe`` block enabled anything; empty otherwise.
    observability: Dict[str, Any] = field(default_factory=dict)
    spec: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (shared serializer, nested specs included)."""
        from repro.analysis.report import result_to_dict

        return result_to_dict(self)


class BuildCollector:
    """The cyclic collector around a build: pause, promote, release.

    Wiring an experiment allocates long-lived state and no garbage, so a
    collection that runs while the heap grows re-walks it and frees
    nothing (PERFORMANCE.md, "Set-up outside the collector").  The build
    therefore runs with the collector paused.  One that outgrew
    ``threshold0 * threshold1`` — the allocations after which the
    collector, left on, would itself have begun moving it into the oldest
    generation — goes to the permanent one, where no pass of the run walks
    it, until :meth:`release` hands it back:
    :meth:`ExperimentExecution.run` on every exit path.  A smaller one (a
    figure-1 cell is under a thousand objects) is left to the collector as
    it is.

    ``gc.unfreeze()`` puts a build into the oldest generation without
    counting it as pending, so the collector's own trigger for a full
    pass never sees it (ten 2,000-AS cells in one process: 82 -> 234 MB,
    no full pass).  The full pass it is owed is made when the next build
    starts — by then the released one is usually dead — and by nobody
    else: a process that runs one experiment never pays it.

    The flags are class-level because the permanent generation is
    process-wide.
    """

    _frozen = False
    _owed = False

    @classmethod
    @contextlib.contextmanager
    def building(cls) -> Iterator[None]:
        """Pause around a build; a caller's own ``gc.disable()`` is kept."""
        # A prepared-and-dropped execution must not stay pinned.
        cls.release()
        if not gc.isenabled():
            yield
            return
        if cls._owed:
            cls._owed = False
            gc.collect()
        gc.disable()
        try:
            yield
            young, middle, _ = gc.get_threshold()
            if gc.get_count()[0] > young * middle:
                gc.freeze()
                cls._frozen = True
        finally:
            gc.enable()

    @classmethod
    def release(cls) -> None:
        """Return a promoted build to the collector (no-op otherwise)."""
        if cls._frozen:
            cls._frozen = False
            cls._owed = True
            gc.unfreeze()


class ExperimentExecution:
    """A fully wired experiment, ready to run.

    Exists separately from :class:`ExperimentRunner` so callers that need
    the live objects — examples reading ``backend.deployment.event_log``,
    the benchmarks counting generated packets — can reach topology handles,
    workload generators and meters before and after the run.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        with BuildCollector.building():
            self._wire(spec)

    def _wire(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self.handle: TopologyHandle = build_topology(spec.topology.kind,
                                                     spec.topology.params)
        #: Engine selection (packet vs train); workload builders read this to
        #: decide whether generators aggregate, and links flip to fluid
        #: serialization before any traffic exists.
        self.engine = spec.engine
        if spec.engine.mode == "train":
            for link in self.handle.topology.links:
                link.enable_train_mode()
        self.config: AITFConfig = (AITFConfig(**dict(spec.aitf))
                                   if spec.aitf else AITFConfig())
        self.rng = SeededRandom(spec.seed, name="experiment")
        self.backend: DefenseBackend = build_backend(spec.defense.backend,
                                                     spec.defense.params)
        self.backend.deploy(self)
        self.workloads: List[WorkloadHandle] = [
            build_workload(self, index, workload.kind, workload.params)
            for index, workload in enumerate(spec.workloads)
        ]
        self.backend.arm(self)

        # Spec-declared metric collectors (occupancy samplers start after
        # the workloads, in spec order — the golden recordings' sequence).
        self.collectors: List[MetricCollector] = []
        seen_ids: set = set()
        for index, collector_spec in enumerate(spec.collectors):
            collector = build_collector(self, index, collector_spec.kind,
                                        collector_spec.params)
            if collector.id in seen_ids:
                raise ValueError(
                    f"duplicate collector id {collector.id!r}; give one of "
                    "them an explicit 'id' param")
            seen_ids.add(collector.id)
            self.collectors.append(collector)

        # Fault injector (None for the overwhelmingly common fault-free
        # spec, which therefore pays nothing).  Built after the defense so
        # router crashes can wipe deployed agent state, started in run()
        # before the workloads so a fault at time t beats traffic at time t.
        from repro.faults import FaultInjector
        self.fault_injector = FaultInjector.from_spec(
            spec, self.handle.topology,
            deployment=getattr(self.backend, "deployment", None))

        # Observability plane (None for the overwhelmingly common
        # unobserved spec: no recorder, no registry, and — because every
        # hook installs by swapping bound methods or subscribing — no added
        # cost anywhere on the hot paths).
        self.observer = None
        self.metrics = None
        if spec.observe.enabled:
            from repro.obs import ExperimentObserver
            self.observer = ExperimentObserver(self)
            self.metrics = self.observer.metrics

        # Meters: one flow/tag meter per attack workload, one goodput meter,
        # and (optionally) occupancy samplers at both gateways.
        victim = self.handle.victim
        self.attack_meters: List[Any] = []
        for workload in self.attack_workloads():
            labels = workload.flow_labels
            if len(labels) == 1:
                self.attack_meters.append(FlowMeter(victim, labels[0]))
            else:
                tag = getattr(workload, "flow_tag", "attack")
                self.attack_meters.append(GoodputMeter(victim, flow_tag_prefix=tag))
        self.goodput_meter = GoodputMeter(victim)
        #: Result field -> the occupancy sampler whose peak it reports.
        self.occupancy: Dict[str, OccupancySampler] = {}
        if spec.sample_occupancy:
            victim_gw = self.handle.victim_gateway
            self.occupancy["victim_gateway_peak_filters"] = OccupancySampler(
                self.sim, lambda: victim_gw.filter_table.occupancy,
                name=f"{victim_gw.name}-filters",
            )
            attacker_gw = self._attacker_gateway()
            if attacker_gw is not None:
                self.occupancy["attacker_gateway_peak_filters"] = OccupancySampler(
                    self.sim, lambda: attacker_gw.filter_table.occupancy,
                    name=f"{attacker_gw.name}-filters",
                )
        self._ran_until: Optional[float] = None

    # ------------------------------------------------------------------
    # context surface used by backends and workload builders
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        """The simulator the experiment runs on."""
        return self.handle.sim

    def attack_workloads(self) -> List[WorkloadHandle]:
        """Workloads playing the attacker role, in spec order."""
        return [w for w in self.workloads if w.role == "attack"]

    def legit_workloads(self) -> List[WorkloadHandle]:
        """Workloads playing the legitimate role, in spec order."""
        return [w for w in self.workloads if w.role == "legit"]

    @property
    def attack_window_start(self) -> float:
        """When the attack begins (metric windows open here)."""
        attacks = self.attack_workloads()
        return min((w.start_time for w in attacks), default=0.0)

    def _attacker_gateway(self) -> Optional[BorderRouter]:
        attacks = self.attack_workloads()
        if not attacks or not attacks[0].attacker_hosts:
            return None
        return self.handle.attacker_gateway(attacks[0].attacker_hosts[0])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> ExperimentResult:
        """Run the simulation to ``until`` (default: the spec's duration)."""
        duration = until if until is not None else self.spec.duration
        try:
            if self._ran_until is None:
                self.start(duration)
            self.sim.run(until=duration)
            self._ran_until = duration
            measured = self.measure(duration)
            if self.metrics is not None:
                from repro.obs.metrics import publish_stats

                publish_stats(self.metrics, "defense",
                              measured["defense_stats"])
                for collector_id, stats in measured["collector_stats"].items():
                    publish_stats(self.metrics, f"collector.{collector_id}",
                                  stats)
            return self.result(duration, measured,
                               self.observer.summary(self)
                               if self.observer is not None else {})
        finally:
            BuildCollector.release()

    def start(self, duration: float) -> None:
        """Start traffic and measurement, in the golden recordings' order."""
        if self.observer is not None:
            self.observer.start(self, duration)
        if self.fault_injector is not None:
            self.fault_injector.start()
        for workload in self.workloads:
            workload.start()
        for collector in self.collectors:
            collector.start()
        for sampler in self.occupancy.values():
            sampler.start()

    def measure(self, duration: float) -> Dict[str, Any]:
        """What the run measured by ``duration``: :meth:`result`'s input."""
        window = (self.attack_window_start, duration)
        injector = self.fault_injector
        peak = {field: sampler.peak
                for field, sampler in self.occupancy.items()}
        return {
            "attack_received_bps": sum((meter.received_bps(*window)
                                        for meter in self.attack_meters), 0.0),
            "legit_goodput_bps": self.goodput_meter.goodput_bps(*window),
            "defense_stats": self.backend.collect(self),
            "collector_stats": {c.id: c.collect(self)
                                for c in self.collectors},
            # Only a link the injector took down can have dropped a packet
            # for being down: those are summed, not every link there is.
            "packets_dropped_down": sum(
                link.stats_toward(link.a).packets_dropped_down
                + link.stats_toward(link.b).packets_dropped_down
                for link in (injector.downed_links
                             if injector is not None else ())),
            "victim_gateway_peak_filters":
                peak.get("victim_gateway_peak_filters"),
            "attacker_gateway_peak_filters":
                peak.get("attacker_gateway_peak_filters"),
            "workload_stats": [w.stats() for w in self.workloads],
        }

    def result(self, duration: float, measured: Mapping[str, Any],
               observability: Dict[str, Any]) -> ExperimentResult:
        """The result document of a run that measured ``measured``."""
        attack_offered = sum(w.offered_bps for w in self.attack_workloads())
        attack_received = measured["attack_received_bps"]
        legit_offered = sum(w.offered_bps for w in self.legit_workloads())
        legit_goodput = measured["legit_goodput_bps"]
        defense_stats = measured["defense_stats"]
        return ExperimentResult(
            schema=RESULT_SCHEMA,
            name=self.spec.name,
            topology=self.spec.topology.kind,
            defense=self.spec.defense.backend,
            duration=duration,
            seed=self.spec.seed,
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
            victim_gateway_peak_filters=measured["victim_gateway_peak_filters"],
            attacker_gateway_peak_filters=measured[
                "attacker_gateway_peak_filters"],
            packets_dropped_down=measured["packets_dropped_down"],
            defense_stats=defense_stats,
            workload_stats=measured["workload_stats"],
            collector_stats=measured["collector_stats"],
            observability=observability,
            spec=self.spec.to_dict(),
        )


class ExperimentRunner:
    """Build and run experiments from declarative specs."""

    def prepare(self, spec: ExperimentSpec) -> ExperimentExecution:
        """Wire everything up without running (for callers that need the
        live objects: ``.backend.deployment``, ``.handle``, ``.collectors``)."""
        return ExperimentExecution(spec)

    def run(self, spec: ExperimentSpec,
            duration: Optional[float] = None) -> ExperimentResult:
        """Prepare and run in one step."""
        return self.prepare(spec).run(until=duration)
