"""Manual filter installation: the status quo the paper argues against.

"Currently, this propagation of filters is manual: the operator on each site
determines the necessary filters and adds them to each router configuration.
In several attacks, the operators of different networks have been forced to
communicate by telephone" (Section I).

:class:`ManualFilteringOperator` models that workflow with two delays:

* ``local_response_delay`` — time for the victim's operator to notice the
  attack, identify the offending flow and configure the edge router
  (minutes, not milliseconds);
* ``upstream_response_delay`` — additional time to get the ISP on the phone
  and have them filter at their side, which is what actually decongests the
  tail circuit.

Experiment E11 runs the same flood against AITF and against this operator to
show the goodput difference during the response gap, and experiment E9 uses
it as the "no automation" anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.flowlabel import FlowLabel
from repro.router.nodes import BorderRouter
from repro.sim.engine import Simulator


@dataclass
class ManualAction:
    """One filter an operator eventually installs."""

    router: BorderRouter
    label: FlowLabel
    installed_at: Optional[float] = None


class ManualFilteringOperator:
    """A human operator responding to an attack by hand."""

    def __init__(
        self,
        sim: Simulator,
        *,
        local_response_delay: float = 300.0,
        upstream_response_delay: float = 900.0,
        filter_duration: float = 3600.0,
    ) -> None:
        self.sim = sim
        self.local_response_delay = local_response_delay
        self.upstream_response_delay = upstream_response_delay
        self.filter_duration = filter_duration
        self.actions: List[ManualAction] = []

    def respond(self, label: FlowLabel, edge_router: BorderRouter,
                upstream_router: Optional[BorderRouter] = None,
                *, attack_start: Optional[float] = None) -> List[ManualAction]:
        """Schedule the operator's response to an attack that just started.

        The local filter lands ``local_response_delay`` after ``attack_start``
        (default: now); the upstream filter, if an upstream router is given,
        lands ``upstream_response_delay`` after the attack start.
        """
        start = attack_start if attack_start is not None else self.sim.now
        actions = [ManualAction(router=edge_router, label=label)]
        self.sim.call_at(start + self.local_response_delay,
                         self._install, actions[0])
        if upstream_router is not None:
            upstream_action = ManualAction(router=upstream_router, label=label)
            actions.append(upstream_action)
            self.sim.call_at(start + self.upstream_response_delay,
                             self._install, upstream_action)
        self.actions.extend(actions)
        return actions

    def _install(self, action: ManualAction) -> None:
        action.router.filter_table.install(action.label, self.filter_duration,
                                           reason="manual operator response")
        action.installed_at = self.sim.now

    @property
    def filters_installed(self) -> int:
        """How many of the scheduled filters have actually been installed so far."""
        return sum(1 for action in self.actions if action.installed_at is not None)

    def time_to_first_filter(self) -> Optional[float]:
        """When the first manual filter went in, or None if none has yet."""
        times = [a.installed_at for a in self.actions if a.installed_at is not None]
        return min(times) if times else None
