"""Traffic workloads: attacks, malicious behaviours and legitimate traffic.

* :class:`~repro.attacks.flood.FloodAttack` — constant-rate UDP flood from
  one zombie; the basic undesired flow of the paper.
* :class:`~repro.attacks.onoff.OnOffAttack` — the "on-off game" of Section
  II-B: send, pause long enough to trick the victim's gateway into removing
  its temporary filter, resume, repeat.
* :class:`~repro.attacks.flood.SpoofedFloodAttack` — floods with forged
  source addresses, used in the ingress-filtering and security experiments.
* :class:`~repro.attacks.flood.ProtocolSwitchingAttack` — rotates
  protocol/port every few seconds so each incarnation needs a new filter
  (the "arms race" of Section I).
* :class:`~repro.attacks.zombies.ZombieArmy` — many coordinated flood
  sources (the worm-built army from the introduction).
* :class:`~repro.attacks.legitimate.LegitimateTraffic` — constant-rate or
  Poisson background traffic whose goodput the victim cares about.
* :class:`~repro.attacks.malicious.RequestForger` — a malicious node trying
  to abuse AITF itself by forging filtering requests to block other
  people's traffic (Section III-B).

Import each name from its module: the package imports nothing, so a run
loads only the generators its spec names.
"""
