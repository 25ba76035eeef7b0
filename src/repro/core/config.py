"""Protocol configuration.

All AITF timing knobs in one place.  Defaults follow the paper's worked
examples (Section IV): filtering requests block a flow for T = 60 s, the
victim's gateway keeps its temporary filter for Ttmp on the order of a
second (enough for traceback plus the 3-way handshake — the paper uses
600 ms for the handshake alone), and both gateways give their counterparty a
short grace period before escalating or disconnecting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class AITFConfig:
    """Tunable parameters of the AITF protocol.

    Attributes
    ----------
    filter_timeout:
        T — how long a filtering request asks for a flow to be blocked, and
        how long the attacker's gateway keeps its filter installed.
    temporary_filter_timeout:
        Ttmp — how long the victim's gateway keeps its temporary filter.
        Must cover traceback time plus the 3-way handshake (Section IV-B).
    shadow_timeout:
        How long the victim's gateway remembers a filtering request in DRAM.
        The paper sets this equal to T.
    attacker_grace_period:
        How long the attacker's gateway waits for the attacker to stop the
        flow before disconnecting it.
    escalation_grace_period:
        How long the victim's gateway waits for the attacker's gateway to
        take over before escalating.  The paper uses Ttmp itself; keeping it
        separate lets the ablation benches vary it.
    handshake_timeout:
        How long the attacker's gateway waits for a verification reply.
    verification_enabled:
        Run the 3-way handshake before honouring requests at the attacker's
        gateway (Section II-E).  Disabled only by the security ablation.
    escalation_enabled:
        Escalate to the next AITF node when a gateway does not cooperate
        (Section II-D).
    max_escalation_rounds:
        Safety bound on rounds; the attack-path length bounds it naturally,
        this is a belt-and-braces limit for malformed paths.
    cooperation_check_window:
        A flow is considered "still active" at filter expiry if it hit the
        filter within this many seconds of the expiry check.
    default_accept_rate / default_send_rate:
        R1 / R2 used when a contract is not configured explicitly.
    victim_gateway_filter_capacity / attacker_gateway_filter_capacity:
        Wire-speed slots provisioned per role; ``None`` leaves the router's
        own capacity untouched.
    shadow_cache_capacity:
        DRAM entries at the victim's gateway; ``None`` means unbounded.
    """

    filter_timeout: float = 60.0
    temporary_filter_timeout: float = 1.0
    shadow_timeout: Optional[float] = None
    attacker_grace_period: float = 2.0
    escalation_grace_period: Optional[float] = None
    handshake_timeout: float = 1.0
    verification_enabled: bool = True
    escalation_enabled: bool = True
    max_escalation_rounds: int = 16
    cooperation_check_window: float = 0.25
    default_accept_rate: float = 100.0
    default_send_rate: float = 100.0
    victim_gateway_filter_capacity: Optional[int] = None
    attacker_gateway_filter_capacity: Optional[int] = None
    shadow_cache_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.filter_timeout <= 0:
            raise ValueError("filter_timeout (T) must be positive")
        if self.temporary_filter_timeout <= 0:
            raise ValueError("temporary_filter_timeout (Ttmp) must be positive")
        if self.temporary_filter_timeout > self.filter_timeout:
            raise ValueError("Ttmp must not exceed T (the paper requires Ttmp << T)")
        if self.attacker_grace_period < 0:
            raise ValueError("attacker_grace_period must be non-negative")
        if self.handshake_timeout <= 0:
            raise ValueError("handshake_timeout must be positive")
        if self.max_escalation_rounds < 1:
            raise ValueError("max_escalation_rounds must be at least 1")

    @property
    def effective_shadow_timeout(self) -> float:
        """Shadow lifetime: explicitly configured, else T (the paper's choice)."""
        return self.shadow_timeout if self.shadow_timeout is not None else self.filter_timeout

    @property
    def effective_escalation_grace(self) -> float:
        """Grace before escalation: explicitly configured, else Ttmp."""
        if self.escalation_grace_period is not None:
            return self.escalation_grace_period
        return self.temporary_filter_timeout

    def with_overrides(self, **kwargs) -> "AITFConfig":
        """Return a copy with some fields replaced (used by parameter sweeps)."""
        return replace(self, **kwargs)


#: Configuration used by the paper's worked examples:
#: T = 1 min, R1 = 100 requests/s, R2 = 1 request/s, handshake ~600 ms.
PAPER_EXAMPLE_CONFIG = AITFConfig(
    filter_timeout=60.0,
    temporary_filter_timeout=0.6,
    default_accept_rate=100.0,
    default_send_rate=1.0,
)
