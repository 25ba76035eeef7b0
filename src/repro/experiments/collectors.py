"""Metric-collector registry: measurement instruments named from a spec.

The resource experiments (E2–E5) do not measure traffic at the victim — they
measure *state*: filter-table occupancy at a gateway, shadow-cache entries,
how many filtering requests were accepted, policed or honoured, and what the
paper's provisioning formulas predict for the same parameters.  A spec asks
for those measurements declaratively::

    "collectors": [
      {"kind": "filter-occupancy", "params": {"node": "victim_gateway",
                                              "period": 0.05}},
      {"kind": "shadow-occupancy", "params": {"period": 0.05}},
      {"kind": "request-accounting"},
      {"kind": "paper-formulas"}
    ]

Each collector lands in the result document under
``collector_stats[<id>]`` (``id`` defaults to the collector's kind), so a
sweep over request rates produces a JSON document a figure can be plotted
straight from — which is exactly how the committed E2–E5 grid specs under
``examples/specs/grids/`` drive ``repro paper``.

Collectors that sample (the occupancy family) start *after* the workloads in
spec order, which reproduces the start sequence of the original hand-written
resource scenarios bit for bit (pinned by the golden determinism tests).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.analysis.metrics import OccupancySampler
from repro.core.events import EventType
from repro.experiments.registry import COLLECTORS


class MetricCollector:
    """One named measurement attached to a wired experiment.

    ``start`` is called when the simulation starts (after the workloads);
    ``collect`` is called after the run and returns a JSON-serializable dict
    that lands in ``ExperimentResult.collector_stats[self.id]``.
    """

    kind = "collector"

    def __init__(self, params: Mapping[str, Any]) -> None:
        self.params = dict(params)
        self.id: str = str(self.params.get("id", self.kind))
        #: Node name whose state this collector measures, or None when the
        #: measurement is location-free (pure config).  Sharded execution
        #: starts each collector only on the shard owning its anchor.
        self.anchor: Optional[str] = None

    def start(self) -> None:
        """Begin measuring (no-op for pure post-run accountants)."""

    def collect(self, ctx: Any) -> Dict[str, Any]:
        """The measured values (must be JSON-serializable)."""
        return {"kind": self.kind}


def _aitf_deployment(ctx: Any, kind: str) -> Any:
    """The AITF deployment behind the experiment's backend, or a clean error."""
    deployment = getattr(ctx.backend, "deployment", None)
    if deployment is None or not hasattr(deployment, "gateway_agent"):
        raise ValueError(
            f"collector {kind!r} needs the 'aitf' defense backend "
            f"(got {ctx.spec.defense.backend!r})")
    return deployment


def _resolve_router(ctx: Any, node: str, kind: str) -> Any:
    """``node`` as a border router: the ``victim_gateway`` role or a name."""
    if node == "victim_gateway":
        return ctx.handle.victim_gateway
    try:
        router = ctx.handle.topology.node(node)
    except KeyError:
        router = None
    if router is None or not hasattr(router, "filter_table"):
        raise ValueError(
            f"collector {kind!r}: node {node!r} is not a border router "
            "with a filter table")
    return router


class _SamplingCollector(MetricCollector):
    """Shared shape for the occupancy family: one :class:`OccupancySampler`."""

    def __init__(self, params: Mapping[str, Any]) -> None:
        super().__init__(params)
        self.period = float(self.params.get("period", 0.1))
        self.sampler: Optional[OccupancySampler] = None

    def start(self) -> None:
        assert self.sampler is not None
        self.sampler.start()

    def collect(self, ctx: Any) -> Dict[str, Any]:
        assert self.sampler is not None
        series = self.sampler.series
        return {
            "kind": self.kind,
            "period": self.period,
            "peak": self.sampler.peak,
            "mean": self.sampler.mean,
            "last": series.last(),
            "samples": len(series),
        }


class _FilterOccupancy(_SamplingCollector):
    kind = "filter-occupancy"


@COLLECTORS.register("filter-occupancy")
def _build_filter_occupancy(ctx: Any, index: int,
                            params: Mapping[str, Any]) -> MetricCollector:
    """Sample a border router's wire-speed filter-table occupancy.
    Params: ``node`` (``victim_gateway`` or a router name), ``period``,
    ``id``."""
    collector = _FilterOccupancy(params)
    node = str(params.get("node", "victim_gateway"))
    router = _resolve_router(ctx, node, collector.kind)
    collector.anchor = router.name
    collector.sampler = OccupancySampler(
        ctx.sim, lambda: router.filter_table.occupancy,
        period=collector.period, name=f"{router.name}-filters",
    )
    return collector


class _ShadowOccupancy(_SamplingCollector):
    kind = "shadow-occupancy"


@COLLECTORS.register("shadow-occupancy")
def _build_shadow_occupancy(ctx: Any, index: int,
                            params: Mapping[str, Any]) -> MetricCollector:
    """Sample the victim gateway's DRAM shadow-cache occupancy (the mv = R1*T
    store of Section IV-B).  Params: ``period``, ``id``.  Requires the
    ``aitf`` backend."""
    collector = _ShadowOccupancy(params)
    deployment = _aitf_deployment(ctx, collector.kind)
    collector.anchor = ctx.handle.victim_gateway.name
    gateway_agent = deployment.gateway_agent(ctx.handle.victim_gateway.name)
    collector.sampler = OccupancySampler(
        ctx.sim, lambda: gateway_agent.shadow_cache.occupancy,
        period=collector.period,
        name=f"{ctx.handle.victim_gateway.name}-shadow",
    )
    return collector


class _HostFilterOccupancy(_SamplingCollector):
    kind = "host-filter-occupancy"


@COLLECTORS.register("host-filter-occupancy")
def _build_host_filter_occupancy(ctx: Any, index: int,
                                 params: Mapping[str, Any]) -> MetricCollector:
    """Sample a host agent's own outbound filter table (the attacker-side
    na = R2*T store of Section IV-D).  Params: ``host`` (host name),
    ``period``, ``id``.  Requires the ``aitf`` backend."""
    collector = _HostFilterOccupancy(params)
    deployment = _aitf_deployment(ctx, collector.kind)
    host = params.get("host")
    if not host:
        raise ValueError("collector 'host-filter-occupancy' needs a 'host' param")
    collector.anchor = str(host)
    agent = deployment.host_agent(str(host))
    collector.sampler = OccupancySampler(
        ctx.sim, lambda: agent.outbound_filters.occupancy,
        period=collector.period, name=f"{host}-filters",
    )
    return collector


class _RequestAccounting(MetricCollector):
    kind = "request-accounting"

    def __init__(self, params: Mapping[str, Any], node: str) -> None:
        super().__init__(params)
        self.node = node

    def collect(self, ctx: Any) -> Dict[str, Any]:
        log = _aitf_deployment(ctx, self.kind).event_log
        return {
            "kind": self.kind,
            "node": self.node,
            "requests_accepted": len([
                e for e in log.of_type(EventType.TEMP_FILTER_INSTALLED)
                if e.node == self.node]),
            "requests_policed": len([
                e for e in log.of_type(EventType.REQUEST_POLICED)
                if e.node == self.node]),
            "filters_installed": len([
                e for e in log.of_type(EventType.FILTER_INSTALLED)
                if e.node == self.node]),
        }


@COLLECTORS.register("request-accounting")
def _build_request_accounting(ctx: Any, index: int,
                              params: Mapping[str, Any]) -> MetricCollector:
    """Count filtering-request outcomes at one gateway: accepted (temporary
    filter installed), policed (over the contract rate), and full-duration
    filters installed (requests honoured).  Params: ``node`` (default: the
    victim's gateway), ``id``.  Requires the ``aitf`` backend."""
    _aitf_deployment(ctx, "request-accounting")
    node = str(params.get("node", "")) or ctx.handle.victim_gateway.name
    collector = _RequestAccounting(params, node)
    collector.anchor = node
    return collector


class _PaperFormulas(MetricCollector):
    kind = "paper-formulas"

    def __init__(self, params: Mapping[str, Any], rate: float) -> None:
        super().__init__(params)
        self.rate = rate

    def collect(self, ctx: Any) -> Dict[str, Any]:
        config = ctx.config
        return {
            "kind": self.kind,
            "request_rate": self.rate,
            "predicted_filters": config.victim_gateway_filters(self.rate),
            "predicted_shadow_entries":
                config.victim_gateway_shadow_entries(self.rate),
            "predicted_protected_flows": config.protected_flows(self.rate),
            "predicted_attacker_filters": config.attacker_side_filters(self.rate),
        }


@COLLECTORS.register("paper-formulas")
def _build_paper_formulas(ctx: Any, index: int,
                          params: Mapping[str, Any]) -> MetricCollector:
    """The Section IV provisioning formulas evaluated at this run's request
    rate: nv = R*Ttmp, mv = R*T, Nv = R*T, na = R*T.  Params:
    ``request_rate`` (default: the first ``filter-requests`` workload's
    rate), ``id``."""
    rate = params.get("request_rate")
    if rate is None:
        for workload in ctx.workloads:
            if workload.kind == "filter-requests":
                rate = workload.params.get("rate", ctx.config.default_send_rate)
                break
    if rate is None:
        raise ValueError(
            "collector 'paper-formulas' needs a 'request_rate' param when no "
            "filter-requests workload is present")
    return _PaperFormulas(params, float(rate))


class _ChurnMetrics(MetricCollector):
    kind = "churn"

    def __init__(self, params: Mapping[str, Any]) -> None:
        super().__init__(params)
        #: Attack rate at the victim above this counts as "re-flooded".
        self.reflood_threshold_bps = float(
            self.params.get("reflood_threshold_bps", 1e5))
        #: Goodput counts as recovered at this fraction of its pre-fault mean.
        self.recovery_fraction = float(self.params.get("recovery_fraction", 0.9))
        #: Pre-fault window used to establish the goodput baseline.
        self.baseline_seconds = float(self.params.get("baseline_seconds", 1.0))

    @staticmethod
    def _merged_series(series_list) -> Dict[float, float]:
        merged: Dict[float, float] = {}
        for series in series_list:
            for time, value in zip(series.times, series.values):
                merged[time] = merged.get(time, 0.0) + value
        return merged

    def collect(self, ctx: Any) -> Dict[str, Any]:
        injector = getattr(ctx, "fault_injector", None)
        result: Dict[str, Any] = {
            "kind": self.kind,
            "reflood_threshold_bps": self.reflood_threshold_bps,
            "fault_count": 0,
            "events": [],
            "timeline": [],
            "total_reflood_seconds": 0.0,
            "max_goodput_dip_bps": 0.0,
            "worst_recovery_seconds": None,
            "filters_reestablished_total": 0,
            "path_changes": 0,
        }
        if injector is None or not injector.timeline:
            return result

        attack = self._merged_series(
            [m.rate_series() for m in ctx.attack_meters])
        goodput = self._merged_series([ctx.goodput_meter.goodput_series()])
        log = getattr(getattr(ctx.backend, "deployment", None), "event_log", None)
        duration = ctx.spec.duration

        timeline = sorted(injector.timeline, key=lambda r: r["time"])
        result["timeline"] = [dict(r) for r in timeline]
        result["fault_count"] = len(timeline)
        if log is not None:
            result["path_changes"] = log.count(EventType.PATH_CHANGED)

        bucket = ctx.goodput_meter.bucket_seconds
        for index, record in enumerate(timeline):
            t0 = record["time"]
            t1 = timeline[index + 1]["time"] if index + 1 < len(timeline) \
                else duration

            # Re-flood window: attack traffic back above threshold at the
            # victim between this event and the next.
            reflood = sum(
                bucket for time, bps in attack.items()
                if t0 <= time < t1 and bps >= self.reflood_threshold_bps)

            # Goodput dip and recovery, against the pre-fault baseline.
            baseline_values = [bps for time, bps in goodput.items()
                               if t0 - self.baseline_seconds <= time < t0]
            baseline = (sum(baseline_values) / len(baseline_values)
                        if baseline_values else 0.0)
            window = sorted((time, bps) for time, bps in goodput.items()
                            if t0 <= time < t1)
            dip = max((baseline - bps for _, bps in window), default=0.0)
            dip = max(dip, 0.0)
            recovery = None
            if baseline > 0.0 and dip > 0.0:
                target = self.recovery_fraction * baseline
                dipped = False
                for time, bps in window:
                    if not dipped and bps < target:
                        dipped = True
                    elif dipped and bps >= target:
                        recovery = time - t0
                        break
                if not dipped:
                    recovery = 0.0

            # Defense reaction: filters (re-)established after this event.
            filters_after = 0
            if log is not None:
                filters_after = sum(
                    1 for e in log
                    if e.event_type in (EventType.TEMP_FILTER_INSTALLED,
                                        EventType.FILTER_INSTALLED)
                    and t0 <= e.time < t1)

            result["events"].append({
                "time": t0,
                "kind": record["kind"],
                "target": record["target"],
                "reflood_seconds": reflood,
                "goodput_baseline_bps": baseline,
                "goodput_dip_bps": dip,
                "recovery_seconds": recovery,
                "filters_reestablished": filters_after,
            })
            result["total_reflood_seconds"] += reflood
            result["max_goodput_dip_bps"] = max(result["max_goodput_dip_bps"],
                                                dip)
            result["filters_reestablished_total"] += filters_after
            if recovery is not None:
                worst = result["worst_recovery_seconds"]
                result["worst_recovery_seconds"] = (
                    recovery if worst is None else max(worst, recovery))
        return result


@COLLECTORS.register("churn")
def _build_churn(ctx: Any, index: int,
                 params: Mapping[str, Any]) -> MetricCollector:
    """Route-churn metrics for fault runs: per fault event, the re-flood
    window (seconds the attack was back above ``reflood_threshold_bps`` at
    the victim), the goodput dip depth against the pre-fault baseline, the
    recovery time (goodput back above ``recovery_fraction`` x baseline), and
    how many filters the defense (re-)established; plus the injector's
    timeline with per-event incremental-rerouting costs (``routes_installed``
    / ``routes_removed``: rows on the routers that hold them).  Works with any
    backend (filter counts need ``aitf``); reports zeros when the spec has
    no faults."""
    return _ChurnMetrics(params)


def build_collector(ctx: Any, index: int, kind: str,
                    params: Mapping[str, Any]) -> MetricCollector:
    """Resolve ``kind`` in the registry and build the collector."""
    builder = COLLECTORS.get(kind)
    return builder(ctx, index, params)
