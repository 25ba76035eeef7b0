"""Measurement instruments.

Every experiment measures the protocol from the outside: how much attack
traffic actually reached the victim, how much legitimate goodput survived,
how many filter slots were occupied over time.  These instruments attach to
hosts and routers without changing their behaviour.

* :class:`FlowMeter` — per-label byte/packet accounting at a host, with a
  time series; computes the effective bandwidth of an undesired flow
  (the quantity of Section IV-A.1).
* :class:`GoodputMeter` — legitimate-traffic goodput at a host.
* :class:`OccupancySampler` — samples a filter table's (or shadow cache's)
  occupancy on a fixed period; reports the peak and the time series, which
  is what the resource benchmarks compare against nv/na/mv.
* :class:`TimeSeries` — minimal (time, value) recorder shared by the above.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router.nodes import Host
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess


def _spread_train_buckets(buckets: Dict[int, int], start: float,
                          interval: float, count: int, size: int,
                          bucket_seconds: float) -> None:
    """Bucket a delivered train's packets at their nominal arrival times.

    Deliberately iterative, not closed-form: the ``when += interval`` float
    recurrence is the exact sequence per-packet mode's arrival times follow,
    so every packet lands in the same bucket it would have per-packet — the
    uncongested-equivalence tests pin windowed rates to the last bit.  The
    loop runs only at metered hosts, once per *delivered* packet.
    """
    when = start
    for _ in range(count):
        bucket = int(when / bucket_seconds)
        buckets[bucket] = buckets.get(bucket, 0) + size
        when += interval


class TimeSeries:
    """An append-only list of (time, value) samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def add(self, time: float, value: float) -> None:
        """Record one sample."""
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        """Sample timestamps, in order."""
        return list(self._times)

    @property
    def values(self) -> List[float]:
        """Sample values, in order."""
        return list(self._values)

    def max(self) -> float:
        """Largest value seen (0.0 when empty)."""
        return max(self._values) if self._values else 0.0

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 when empty)."""
        return sum(self._values) / len(self._values) if self._values else 0.0

    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self._values[-1] if self._values else 0.0

    def integrate(self) -> float:
        """Trapezoidal integral of value over time."""
        if len(self._times) < 2:
            return 0.0
        total = 0.0
        for index in range(1, len(self._times)):
            dt = self._times[index] - self._times[index - 1]
            total += dt * (self._values[index] + self._values[index - 1]) / 2.0
        return total


class FlowMeter:
    """Counts traffic matching a label as it is delivered to a host."""

    def __init__(self, host: Host, label: FlowLabel, *, bucket_seconds: float = 0.1) -> None:
        self.host = host
        self.label = label
        self.bucket_seconds = bucket_seconds
        self.packets = 0
        self.bytes = 0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self._buckets: Dict[int, int] = {}
        host.on_receive(self._observe)

    def _observe(self, packet: Packet, train=None) -> None:
        """Count a delivered packet, or a whole train spread over its span.

        A train's packets are bucketed at their nominal arrival times (first
        packet now, then one interval apart), so the rate series is the same
        shape per-packet delivery records, at one call per train.
        """
        if not self.label.matches(packet):
            return
        count, interval = (1, 0.0) if train is None else (train.count, train.interval)
        now = self.host.sim.now
        self.packets += count
        self.bytes += count * packet.size
        if self.first_arrival is None:
            self.first_arrival = now
        self.last_arrival = now + (count - 1) * interval
        _spread_train_buckets(self._buckets, now, interval, count, packet.size,
                              self.bucket_seconds)

    # ------------------------------------------------------------------
    # derived measurements
    # ------------------------------------------------------------------
    def received_bps(self, start: float, end: float) -> float:
        """Average received rate of the flow over [start, end]."""
        if end <= start:
            return 0.0
        first_bucket = int(start / self.bucket_seconds)
        last_bucket = int(end / self.bucket_seconds)
        total = sum(size for bucket, size in self._buckets.items()
                    if first_bucket <= bucket <= last_bucket)
        return (total * 8) / (end - start)

    def effective_bandwidth_ratio(self, offered_bps: float, start: float, end: float) -> float:
        """Received rate divided by offered rate — the paper's reduction factor r."""
        if offered_bps <= 0:
            return 0.0
        return self.received_bps(start, end) / offered_bps

    def rate_series(self) -> TimeSeries:
        """Received rate per bucket, as a time series in bits per second."""
        series = TimeSeries(name=f"flow-rate@{self.host.name}")
        for bucket in sorted(self._buckets):
            series.add(bucket * self.bucket_seconds,
                       (self._buckets[bucket] * 8) / self.bucket_seconds)
        return series

    def active_seconds(self) -> float:
        """Number of bucket-seconds in which at least one packet arrived."""
        return len(self._buckets) * self.bucket_seconds


class GoodputMeter:
    """Measures legitimate goodput delivered to one host."""

    def __init__(self, host: Host, *, flow_tag_prefix: str = "legit",
                 bucket_seconds: float = 0.1) -> None:
        self.host = host
        self.flow_tag_prefix = flow_tag_prefix
        self.bucket_seconds = bucket_seconds
        self.packets = 0
        self.bytes = 0
        self._buckets: Dict[int, int] = {}
        host.on_receive(self._observe)

    def _observe(self, packet: Packet, train=None) -> None:
        """Count a delivered packet, or a train bucketed at nominal times."""
        if not packet.flow_tag.startswith(self.flow_tag_prefix):
            return
        count, interval = (1, 0.0) if train is None else (train.count, train.interval)
        self.packets += count
        self.bytes += count * packet.size
        _spread_train_buckets(self._buckets, self.host.sim.now, interval,
                              count, packet.size, self.bucket_seconds)

    def goodput_bps(self, start: float, end: float) -> float:
        """Average goodput over [start, end] in bits per second."""
        if end <= start:
            return 0.0
        first_bucket = int(start / self.bucket_seconds)
        last_bucket = int(end / self.bucket_seconds)
        total = sum(size for bucket, size in self._buckets.items()
                    if first_bucket <= bucket <= last_bucket)
        return (total * 8) / (end - start)

    def goodput_series(self) -> TimeSeries:
        """Goodput per bucket, as a time series in bits per second."""
        series = TimeSeries(name=f"goodput@{self.host.name}")
        for bucket in sorted(self._buckets):
            series.add(bucket * self.bucket_seconds,
                       (self._buckets[bucket] * 8) / self.bucket_seconds)
        return series


class OccupancySampler:
    """Samples any integer-valued gauge (filter table, shadow cache) over time."""

    def __init__(self, sim: Simulator, gauge: Callable[[], int],
                 *, period: float = 0.1, name: str = "") -> None:
        self.sim = sim
        self.gauge = gauge
        self.series = TimeSeries(name=name or "occupancy")
        self._process = PeriodicProcess(sim, period, self._sample,
                                        name=name or "occupancy-sampler")

    def start(self) -> "OccupancySampler":
        """Begin sampling; returns self for chaining."""
        self._process.start()
        return self

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()

    def _sample(self) -> None:
        self.series.add(self.sim.now, float(self.gauge()))

    @property
    def peak(self) -> float:
        """Largest sampled value."""
        return self.series.max()

    @property
    def mean(self) -> float:
        """Mean sampled value."""
        return self.series.mean()
