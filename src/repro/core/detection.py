"""Attack detection at the victim.

The paper deliberately starts "from the point where the node has identified
the undesired flow(s)" (Section V, contrasting with Mahajan et al.), but a
packet-level reproduction still needs *something* to turn received packets
into filtering requests with a detection delay Td — because Td appears in the
effective-bandwidth formula of Section IV-A.1.

:class:`RateBasedDetector` is that something: it watches the packets an
application receives, tracks per-source-flow rates over a sliding window,
and once a flow exceeds the configured threshold it waits the configured
detection delay Td and then asks the host agent to request filtering.  A
flow whose label is already shadow-known to the victim (it was blocked
before and reappeared) is re-reported immediately, matching the paper's
footnote 8 ("detecting a reappearing undesired flow could be as fast as
matching a received packet header to a logged undesired flow label").

For experiments that want full determinism there is also
:class:`ExplicitDetector`, which flags exactly the sources it is told to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set, Tuple

from repro.core.events import EventType, ProtocolEventLog
from repro.core.host_agent import HostAgent
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet


@dataclass
class _FlowTrack:
    """Sliding-window byte accounting for one (src, dst) flow."""

    samples: Deque[Tuple[float, int]] = field(default_factory=deque)
    bytes_in_window: int = 0
    flagged_at: Optional[float] = None
    reported: bool = False


class RateBasedDetector:
    """Flags flows whose rate exceeds a threshold as undesired.

    Parameters
    ----------
    agent:
        The victim host's AITF agent (used to send filtering requests).
    rate_threshold_bps:
        A flow sustaining more than this rate over the window is undesired.
    window:
        Sliding-window length in seconds.
    detection_delay:
        Td — time between a flow first crossing the threshold and the
        filtering request being sent (models operator / IDS latency).
    """

    def __init__(
        self,
        agent: HostAgent,
        *,
        rate_threshold_bps: float = 1e6,
        window: float = 0.5,
        detection_delay: float = 0.1,
        event_log: Optional[ProtocolEventLog] = None,
    ) -> None:
        if rate_threshold_bps <= 0:
            raise ValueError("rate_threshold_bps must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        if detection_delay < 0:
            raise ValueError("detection_delay must be non-negative")
        self.agent = agent
        self.rate_threshold_bps = rate_threshold_bps
        self.window = window
        self.detection_delay = detection_delay
        self.log = event_log or agent.log
        self._flows: Dict[Tuple[int, int], _FlowTrack] = {}
        self._known_bad_labels: Set[FlowLabel] = set()
        self.detections = 0

        agent.host.on_receive(self.observe)

    # ------------------------------------------------------------------
    # packet observation
    # ------------------------------------------------------------------
    def observe(self, packet: Packet, train=None) -> None:
        """Feed one received data packet, or a whole train, to the detector.

        A train's byte accounting is exact (one window sample of ``count *
        size`` bytes at its delivery time); only the intra-train sample
        spread collapses, which moves threshold crossings by at most one
        train span.
        """
        total_bytes = packet.size if train is None else train.count * packet.size
        now = self.agent.host.sim.now
        label = FlowLabel.between(packet.src, packet.dst)
        if label in self._known_bad_labels:
            # Reappearing flow: report immediately (footnote 8 of the
            # paper) — once per observation.  Per-packet mode reports per
            # delivered packet, but its first report triggers re-filtering
            # that cuts the burst short after ~1 RTT; a train is delivered
            # atomically and cannot be cut short retroactively, so one
            # report per train is the closer approximation (and avoids
            # count-fold control-plane spam from a single delivery).
            self._report(label, packet, now)
            return
        key = (packet.src.value, packet.dst.value)
        track = self._flows.setdefault(key, _FlowTrack())
        track.samples.append((now, total_bytes))
        track.bytes_in_window += total_bytes
        cutoff = now - self.window
        while track.samples and track.samples[0][0] < cutoff:
            _, size = track.samples.popleft()
            track.bytes_in_window -= size
        rate_bps = (track.bytes_in_window * 8) / self.window
        if rate_bps < self.rate_threshold_bps:
            return
        if track.flagged_at is None:
            track.flagged_at = now
        if track.reported:
            return
        if now - track.flagged_at >= self.detection_delay:
            track.reported = True
            self._report(label, packet, now)

    def _report(self, label: FlowLabel, packet: Packet, now: float) -> None:
        self.detections += 1
        self._known_bad_labels.add(label)
        self.log.record(now, EventType.ATTACK_DETECTED, self.agent.host.name,
                        label=str(label))
        self.agent.request_filtering(label, sample_packet=packet)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def known_bad_labels(self) -> Set[FlowLabel]:
        """Labels this detector has ever reported."""
        return set(self._known_bad_labels)


class ExplicitDetector:
    """Reports exactly the sources it is told are undesired.

    Deterministic benchmarks use this to remove detection noise: the
    detection delay Td is applied verbatim, with no rate estimation.

    ``redetect_gap`` (opt-in, used by the fault-injection experiments) arms
    re-detection: when a flow this detector already reported is delivered
    again after at least that many seconds of silence — it had been
    successfully suppressed and is back, so the installed filters no longer
    sit on its path — the detector re-requests filtering after Td with the
    reappearing packet's fresh route record, forcing past the host agent's
    outstanding-request dedup.
    Left at None, behavior is unchanged: one report per flow, ever.
    """

    def __init__(self, agent: HostAgent, *, detection_delay: float = 0.0,
                 redetect_gap: Optional[float] = None) -> None:
        if redetect_gap is not None and redetect_gap <= 0:
            raise ValueError("redetect_gap must be positive when set")
        self.agent = agent
        self.detection_delay = detection_delay
        self.redetect_gap = redetect_gap
        self._undesired_sources: Set[IPAddress] = set()
        self._reported: Set[Tuple[int, int]] = set()
        self._last_seen: Dict[Tuple[int, int], float] = {}
        self.detections = 0
        self.redetections = 0

        agent.host.on_receive(self.observe)

    def mark_undesired(self, source: IPAddress) -> None:
        """Declare traffic from ``source`` undesired from now on."""
        self._undesired_sources.add(IPAddress.parse(source))

    def unmark(self, source: IPAddress) -> None:
        """Stop treating ``source`` as undesired (future flows are tolerated)."""
        self._undesired_sources.discard(IPAddress.parse(source))

    def observe(self, packet: Packet, train=None) -> None:
        """Report the packet's flow if its source has been marked undesired.

        The decision is per-flow, so a train needs nothing beyond its
        template — and its delivery time is its first packet's exact arrival
        time, which keeps the detection timestamp (and therefore the
        filtering-response metric) identical to per-packet mode.
        """
        if packet.src not in self._undesired_sources:
            return
        key = (packet.src.value, packet.dst.value)
        label = FlowLabel.between(packet.src, packet.dst)
        now = self.agent.host.sim.now
        last_seen = self._last_seen.get(key)
        self._last_seen[key] = now
        if key in self._reported and self.agent.wants_blocked(label):
            if (self.redetect_gap is None or last_seen is None
                    or now - last_seen < self.redetect_gap):
                return
            # The flow had gone quiet (the defense was working) and is
            # being delivered again: re-request along its current path.
            # Td applies here too — the victim's detector models IDS /
            # operator latency, unlike the gateway's DRAM shadow match.
            self.detections += 1
            self.redetections += 1
            path = packet.recorded_path
            if self.detection_delay > 0:
                self.agent.host.sim.schedule(
                    self.detection_delay, self.agent.request_filtering, label,
                    attack_path=path, force=True, name="explicit-redetection")
            else:
                self.agent.request_filtering(label, attack_path=path, force=True)
            return
        self._reported.add(key)
        self.detections += 1
        sim = self.agent.host.sim
        path = packet.recorded_path
        if self.detection_delay > 0:
            sim.schedule(self.detection_delay, self.agent.request_filtering, label,
                         attack_path=path, name="explicit-detection")
        else:
            self.agent.request_filtering(label, attack_path=path)
