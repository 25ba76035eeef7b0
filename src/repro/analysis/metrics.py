"""Measurement instruments.

Every experiment measures the protocol from the outside: how much attack
traffic actually reached the victim, how much legitimate goodput survived,
how many filter slots were occupied over time.  These instruments attach to
hosts and routers without changing their behaviour.

* :class:`FlowMeter` — per-label byte/packet accounting at a host, with a
  time series; computes the effective bandwidth of an undesired flow
  (the quantity of Section IV-A.1).
* :class:`GoodputMeter` — legitimate-traffic goodput at a host.
* :class:`BucketStore` — the bytes-per-time-bucket record under both: a
  delivered train is one row, counted per packet only where a read asks.
* :class:`OccupancySampler` — samples a filter table's (or shadow cache's)
  occupancy on a fixed period; reports the peak and the time series, which
  is what the resource benchmarks compare against nv/na/mv.
* :class:`TimeSeries` — minimal (time, value) recorder shared by the above.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet
from repro.router.nodes import Host
from repro.sim.engine import Simulator
from repro.sim.process import TrainProcess


def _spread_train_buckets(buckets: Dict[int, int], start: float,
                          interval: float, count: int, size: int,
                          bucket_seconds: float) -> None:
    """Bucket a delivered train's packets at their nominal arrival times.

    Deliberately iterative, not closed-form: the ``when += interval`` float
    recurrence is the exact sequence per-packet mode's arrival times follow,
    so every packet lands in the same bucket it would have per-packet — the
    uncongested-equivalence tests pin windowed rates to the last bit.  This
    is the reference :class:`BucketStore` answers to; it runs only when a
    time series is read, never while the simulation does.
    """
    when = start
    for _ in range(count):
        bucket = int(when / bucket_seconds)
        buckets[bucket] = buckets.get(bucket, 0) + size
        when += interval


class BucketStore:
    """Bytes delivered per ``bucket_seconds`` bucket of nominal arrival time.

    A lone packet goes straight into its bucket.  A train is kept as one
    flat ``(start, interval, count, size)`` row — no work per packet while
    the simulation runs — and read back two ways, both equal to spreading
    it with :func:`_spread_train_buckets` when it arrived:

    * :meth:`total` counts a row wholly inside (or outside) the window in
      one multiplication and walks only a row the window cuts, in C, along
      the same float recurrence;
    * :meth:`folded` spreads the pending rows into the buckets, once.

    Times are simulation times: ``start`` and ``interval`` are never
    negative.
    """

    __slots__ = ("bucket_seconds", "_buckets", "_rows")

    def __init__(self, bucket_seconds: float) -> None:
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, int] = {}
        self._rows: List[Tuple[float, float, int, int]] = []

    def add(self, start: float, interval: float, count: int, size: int) -> None:
        """Record ``count`` packets of ``size`` bytes: the first at ``start``,
        the rest ``interval`` apart."""
        if count == 1:
            bucket = int(start / self.bucket_seconds)
            self._buckets[bucket] = self._buckets.get(bucket, 0) + size
        else:
            self._rows.append((start, interval, count, size))

    def total(self, first_bucket: int, last_bucket: int) -> int:
        """Bytes in buckets ``first_bucket <= last_bucket``, both included."""
        total = sum(size for bucket, size in self._buckets.items()
                    if first_bucket <= bucket <= last_bucket)
        bucket_seconds = self.bucket_seconds

        def bucket_of(when: float) -> int:
            return int(when / bucket_seconds)

        for start, interval, count, size in self._rows:
            head = bucket_of(start)
            # No earlier than the last packet's bucket: each addition of the
            # recurrence rounds by at most 2**-53 of its (non-negative)
            # result, so the closed form widened by 1e-15 a packet bounds it.
            tail = bucket_of((start + (count - 1) * interval)
                             * (1.0 + count * 1e-15))
            if head > last_bucket or tail < first_bucket:
                continue
            if first_bucket <= head and tail <= last_bucket:
                total += count * size
                continue
            # The window cuts this train (or comes within rounding of it):
            # bucket numbers never decrease along it, so each edge is a
            # bisection over its exact packet times.
            times = list(accumulate(repeat(interval, count - 1), initial=start))
            total += size * (bisect_right(times, last_bucket, key=bucket_of)
                             - bisect_left(times, first_bucket, key=bucket_of))
        return total

    def folded(self) -> Dict[int, int]:
        """Bytes per bucket, every train spread over the buckets it spans."""
        for start, interval, count, size in self._rows:
            _spread_train_buckets(self._buckets, start, interval, count, size,
                                  self.bucket_seconds)
        self._rows.clear()
        return self._buckets


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


class _HostMeter:
    """What the two host meters share: packet and byte counters, the bucket
    store a matching delivery is recorded in, and the reads over it."""

    #: Prefix of the time series' name.
    series_name = ""

    def __init__(self, host: Host, bucket_seconds: float) -> None:
        self.host = host
        self.bucket_seconds = bucket_seconds
        self.packets = 0
        self.bytes = 0
        self._store = BucketStore(bucket_seconds)
        host.on_receive(self._observe)

    def _observe(self, packet: Packet, train=None) -> None:
        raise NotImplementedError

    def received_bps(self, start: float, end: float) -> float:
        """Average received rate over [start, end] in bits per second."""
        if end <= start:
            return 0.0
        total = self._store.total(int(start / self.bucket_seconds),
                                  int(end / self.bucket_seconds))
        return (total * 8) / (end - start)

    def rate_series(self) -> TimeSeries:
        """Received rate per bucket, as a time series in bits per second."""
        series = TimeSeries(name=f"{self.series_name}@{self.host.name}")
        buckets = self._store.folded()
        for bucket in sorted(buckets):
            series.add(bucket * self.bucket_seconds,
                       (buckets[bucket] * 8) / self.bucket_seconds)
        return series


class FlowMeter(_HostMeter):
    """Counts traffic matching a label as it is delivered to a host."""

    series_name = "flow-rate"

    def __init__(self, host: Host, label: FlowLabel, *, bucket_seconds: float = 0.1) -> None:
        self.label = label
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        super().__init__(host, bucket_seconds)

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
        self._store.add(now, interval, count, packet.size)

    # ------------------------------------------------------------------
    # derived measurements
    # ------------------------------------------------------------------
    def effective_bandwidth_ratio(self, offered_bps: float, start: float, end: float) -> float:
        """Received rate divided by offered rate — the paper's reduction factor r."""
        if offered_bps <= 0:
            return 0.0
        return self.received_bps(start, end) / offered_bps


class GoodputMeter(_HostMeter):
    """Measures legitimate goodput delivered to one host."""

    series_name = "goodput"

    def __init__(self, host: Host, *, flow_tag_prefix: str = "legit",
                 bucket_seconds: float = 0.1) -> None:
        self.flow_tag_prefix = flow_tag_prefix
        super().__init__(host, bucket_seconds)

    def _observe(self, packet: Packet, train=None) -> None:
        """Count a delivered packet, or a train bucketed at nominal times."""
        if not packet.flow_tag.startswith(self.flow_tag_prefix):
            return
        count, interval = (1, 0.0) if train is None else (train.count, train.interval)
        self.packets += count
        self.bytes += count * packet.size
        self._store.add(self.host.sim.now, interval, count, packet.size)

    #: Average goodput over [start, end] in bits per second.
    goodput_bps = _HostMeter.received_bps
    #: Goodput per bucket, as a time series in bits per second.
    goodput_series = _HostMeter.rate_series


class OccupancySampler:
    """Samples any integer-valued gauge (filter table, shadow cache) over time."""

    def __init__(self, sim: Simulator, gauge: Callable[[], int],
                 *, period: float = 0.1, name: str = "") -> None:
        self.sim = sim
        self.gauge = gauge
        self.series = TimeSeries(name=name or "occupancy")
        self._process = TrainProcess(sim, period, self._sample)

    def start(self) -> "OccupancySampler":
        """Begin sampling; returns self for chaining."""
        self._process.start()
        return self

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()

    def _sample(self, _count: int) -> None:
        self.series.add(self.sim.now, float(self.gauge()))

    @property
    def peak(self) -> float:
        """Largest sampled value."""
        return self.series.max()

    @property
    def mean(self) -> float:
        """Mean sampled value."""
        return self.series.mean()
