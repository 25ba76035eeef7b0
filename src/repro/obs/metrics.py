"""The unified metrics plane: counters, gauges and sampled time series.

A :class:`MetricsRegistry` is created per experiment when the spec's
``observe.metrics`` flag is on.  Defense backends and collectors publish
into it opportunistically (``ctx.metrics`` is None on unobserved runs, and
publishing is a handful of dict stores at collect time — never on the
packet path); gauges registered against live objects (filter-table
occupancy, queue depths) are sampled on the spec's ``sample_period``
cadence by one :class:`~repro.sim.process.TrainProcess`.

``snapshot()`` flattens everything into plain JSON-ready dicts that ride in
``ExperimentResult.observability`` — the same ``experiment_result/v1``
document every other metric uses, so sweep reports and the cell cache need
no new machinery.  Nothing here reads the wall clock; snapshots of a seeded
run are deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.sim.process import TrainProcess


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        """Publish an externally accumulated total (collect-time use)."""
        self.value = value


class Gauge:
    """A point-in-time value, either set directly or read from a callable."""

    __slots__ = ("value", "_read")

    def __init__(self, read: Optional[Callable[[], float]] = None) -> None:
        self.value: Optional[float] = None
        self._read = read

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> Optional[float]:
        """Refresh from the registered callable (if any) and return."""
        if self._read is not None:
            self.value = self._read()
        return self.value


class Series:
    """A time series: (time, value) observations plus summary stats."""

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def observe(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def to_dict(self) -> Dict[str, Any]:
        values = self.values
        data: Dict[str, Any] = {"count": len(values)}
        if values:
            data.update(
                first=values[0], last=values[-1],
                min=min(values), max=max(values),
                mean=sum(values) / len(values),
                times=list(self.times), values=list(values),
            )
        return data


class MetricsRegistry:
    """Name-addressed counters, gauges and series with cadence sampling."""

    def __init__(self, sample_period: float = 0.1) -> None:
        self.sample_period = float(sample_period)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._series: Dict[str, Series] = {}
        self._sampler: Optional[TrainProcess] = None

    # ------------------------------------------------------------------
    # registration / lookup (get-or-create, like every metrics client)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str,
              read: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(read)
        return gauge

    def series(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series()
        return series

    # ------------------------------------------------------------------
    # cadence sampling
    # ------------------------------------------------------------------
    def start_sampling(self, sim: Any, until: float) -> None:
        """Sample every gauge into its same-named series each period, from
        now on; the last sample lands at or before ``until``."""
        if self._sampler is None:
            self._clock = sim.clock
            self._sampler = TrainProcess(sim, self.sample_period, self._sample,
                                         horizon=until)
            self._sampler.start()

    def _sample(self, _count: int) -> None:
        now = self._clock()
        for name, gauge in self._gauges.items():
            value = gauge.sample()
            if value is not None:
                self.series(name).observe(now, value)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data form for ``ExperimentResult.observability``."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "series": {name: s.to_dict()
                       for name, s in sorted(self._series.items())},
        }


def publish_stats(registry: MetricsRegistry, prefix: str,
                  stats: Mapping[str, Any]) -> None:
    """Publish a stats dict's numeric scalars as ``<prefix>.<key>`` counters.

    This is how defense backends and collectors land in the metrics plane:
    the runner calls it at collect time with each backend/collector stats
    dict, so their final numbers sit next to the sampled series in one
    snapshot.  Non-numeric values (backend names, lists, nested dicts) are
    skipped — they already ride in ``defense_stats``/``collector_stats``.
    """
    for key, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.counter(f"{prefix}.{key}").set(value)
