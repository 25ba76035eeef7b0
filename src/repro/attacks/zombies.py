"""Zombie armies: many coordinated flood sources.

"The attacker typically uses a worm to create an 'army' of zombies, which she
orchestrates to flood the victim's site with malicious traffic" (Section I).
:class:`ZombieArmy` wraps one flood generator per compromised host and
provides army-wide controls: staggered start times, synchronized protocol
rotation, and aggregate statistics for the benchmarks that sweep attack
width against contract rates and filter-table sizes (E2, E3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.attacks.flood import FloodAttack, SpoofedFloodAttack
from repro.net.address import IPAddress
from repro.net.flowlabel import FlowLabel
from repro.router.nodes import Host
from repro.sim.randomness import SeededRandom


class ZombieArmy:
    """A set of flood attacks launched from many hosts at one victim."""

    def __init__(
        self,
        zombies: Sequence[Host],
        victim: Union[str, IPAddress],
        *,
        rate_pps_per_zombie: float = 200.0,
        packet_size: int = 1000,
        start_time: float = 0.0,
        start_jitter: float = 0.0,
        spoofed: bool = False,
        duration: Optional[float] = None,
        rng: Optional[SeededRandom] = None,
        max_train: int = 1,
        max_span: Optional[float] = None,
        horizon: Optional[float] = None,
    ) -> None:
        if not zombies:
            raise ValueError("an army needs at least one zombie")
        self.victim = IPAddress.parse(victim)
        self._rng = rng or SeededRandom(42, name="zombie-army")
        self.attacks: List[FloodAttack] = []
        for zombie in zombies:
            jitter = self._rng.uniform(0.0, start_jitter) if start_jitter > 0 else 0.0
            attack_class = SpoofedFloodAttack if spoofed else FloodAttack
            kwargs = dict(
                rate_pps=rate_pps_per_zombie,
                packet_size=packet_size,
                start_time=start_time + jitter,
                duration=duration,
                flow_tag="zombie-attack",
                # Spoofed zombies aggregate too: one freshly drawn source
                # per train (see SpoofedFloodAttack).
                max_train=max_train,
                max_span=max_span,
                horizon=horizon,
            )
            if spoofed:
                kwargs["rng"] = self._rng.fork(zombie.name)
            self.attacks.append(attack_class(zombie, victim, **kwargs))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ZombieArmy":
        """Launch every zombie; returns self for chaining."""
        for attack in self.attacks:
            attack.start()
        return self

    def stop(self) -> None:
        """Call off the whole army."""
        for attack in self.attacks:
            attack.stop()

    def __len__(self) -> int:
        return len(self.attacks)

    def __iter__(self):
        return iter(self.attacks)

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def flow_labels(self) -> List[FlowLabel]:
        """One label per zombie flow (what the victim has to block)."""
        return [attack.flow_label for attack in self.attacks]

    @property
    def packets_sent(self) -> int:
        """Total packets emitted by the army so far."""
        return sum(attack.packets_sent for attack in self.attacks)

    @property
    def offered_rate_bps(self) -> float:
        """Aggregate offered load in bits per second."""
        return sum(attack.offered_rate_bps for attack in self.attacks)

    @property
    def active_count(self) -> int:
        """How many zombies are still sending."""
        return sum(1 for attack in self.attacks if attack.active)

    def register_with_agents(self, host_agents: dict) -> None:
        """Wire each zombie's stop callback into its host's AITF agent.

        ``host_agents`` maps host name to :class:`repro.core.HostAgent`; hosts
        without an agent (or whose agent is non-cooperative) simply keep
        flooding until disconnected.
        """
        for attack in self.attacks:
            agent = host_agents.get(attack.attacker.name)
            if agent is not None:
                agent.on_stop_request(attack.stop_flow_callback)
