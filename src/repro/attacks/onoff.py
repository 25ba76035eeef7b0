"""The "on-off" attack of Section II-B.

When the attacker's gateway does not cooperate, the attacker can start an
undesired flow, stop long enough to trick the victim's gateway into removing
its temporary filter (the gateway interprets the silence as "the attacker's
gateway took over"), then start again, and so on.  The victim's gateway
defeats this with its DRAM shadow cache: the reappearing flow matches a
logged label, is re-blocked immediately and triggers escalation.

:class:`OnOffAttack` drives exactly that duty cycle.  The default timing —
on for a bit more than the temporary-filter lifetime, off for a bit more
than it again — is the most effective cadence available to the attacker: any
shorter off-period and the temporary filter is still installed when the flow
resumes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.attacks.base import TrafficSource
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.net.packet import Packet, Protocol
from repro.router.nodes import Host
from repro.sim.process import Timer


class OnOffAttack(TrafficSource):
    """A flood that alternates between bursting and going silent.

    Under an aggregating engine each on-phase emits packet trains whose
    length is clipped to the phase boundary, so a train never leaks into an
    off-period — the duty cycle the shadow cache has to catch is preserved
    exactly.
    """

    def __init__(
        self,
        attacker: Host,
        victim: Union[str, IPAddress],
        *,
        rate_pps: float = 1000.0,
        packet_size: int = 1000,
        on_duration: float = 1.5,
        off_duration: float = 1.5,
        start_time: float = 0.0,
        cycles: Optional[int] = None,
        protocol: str = Protocol.UDP.value,
        max_train: int = 1,
        max_span: Optional[float] = None,
        horizon: Optional[float] = None,
    ) -> None:
        if on_duration <= 0 or off_duration <= 0:
            raise ValueError("on/off durations must be positive")
        if start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        if cycles is not None and cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        super().__init__(attacker, rate_pps=rate_pps,
                         packet_size=packet_size, max_train=max_train,
                         max_span=max_span, horizon=horizon)
        self.attacker = attacker
        self.victim = IPAddress.parse(victim)
        self.on_duration = on_duration
        self.off_duration = off_duration
        self.start_time = start_time
        self.cycles_limit = cycles
        self.protocol = protocol
        self.cycles_completed = 0
        self._stopped = False
        self._phase_timer = Timer(attacker.sim, self._toggle)
        self._in_on_phase = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OnOffAttack":
        """Schedule the first on-phase; returns self for chaining."""
        self.attacker.sim.call_at(self.start_time, self._begin_on_phase)
        return self

    def stop(self) -> None:
        """Abort the attack entirely."""
        self._stopped = True
        self._process.stop()
        self._phase_timer.cancel()

    @property
    def active(self) -> bool:
        """True while the attack is in an on-phase."""
        return self._in_on_phase and not self._stopped

    @property
    def flow_label(self) -> FlowLabel:
        """The label a victim would use to block this attack."""
        return FlowLabel.between(self.attacker.address, self.victim)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _begin_on_phase(self) -> None:
        if self._stopped:
            return
        self._in_on_phase = True
        # Trains must not cross the end of this on-phase.
        self._stop_emitting_at(self.attacker.sim.now + self.on_duration)
        self._process.start()
        self._phase_timer.start(self.on_duration)

    def _begin_off_phase(self) -> None:
        self._in_on_phase = False
        self._process.stop()
        self.cycles_completed += 1
        if self.cycles_limit is not None and self.cycles_completed >= self.cycles_limit:
            self._stopped = True
            return
        self._phase_timer.start(self.off_duration)

    def _toggle(self) -> None:
        if self._stopped:
            return
        if self._in_on_phase:
            self._begin_off_phase()
        else:
            self._begin_on_phase()

    def _build_packet(self) -> Packet:
        return Packet.data(
            src=self.attacker.address,
            dst=self.victim,
            protocol=self.protocol,
            size=self.packet_size,
            flow_tag="onoff-attack",
        )
