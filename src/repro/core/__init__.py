"""The AITF protocol: the paper's primary contribution.

This package implements the full Active Internet Traffic Filtering protocol
of Argyraki & Cheriton:

* :class:`AITFConfig` — every protocol parameter (T, Ttmp, grace periods,
  contract rates) with the paper's worked-example values as defaults.
* :class:`FilteringRequest`, :class:`VerificationQuery`,
  :class:`VerificationReply` — the protocol messages (Sections II-C, II-E).
* :class:`AITFAgent` — what both agents share: one entry point for the
  messages, the handshake answer, control-packet sending, filter installs.
* :class:`HostAgent` — end-host behaviour: requesting filters as a victim,
  answering handshake queries, stopping flows as a (cooperative) attacker.
* :class:`GatewayAgent` — border-router behaviour as one transition table:
  victim's-gateway temporary filters + DRAM shadowing + propagation +
  escalation, and attacker's-gateway 3-way handshake + filtering +
  disconnection.
* :class:`RateBasedDetector` / :class:`ExplicitDetector` — turning received
  attack packets into filtering requests with a detection delay Td.
* :func:`deploy_aitf` — attach agents to every node of a built topology.
* :class:`ProtocolEventLog` — the audit trail every experiment measures from.
"""

from repro.core.config import AITFConfig, PAPER_EXAMPLE_CONFIG
from repro.core.deployment import AITFDeployment, deploy_aitf
from repro.core.detection import ExplicitDetector, RateBasedDetector
from repro.core.directory import NodeDirectory
from repro.core.events import EventType, ProtocolEvent, ProtocolEventLog
from repro.core.gateway_agent import GatewayAgent
from repro.core.host_agent import HostAgent
from repro.core.messages import (
    AITFAgent,
    DisconnectNotice,
    FilteringRequest,
    RequestRole,
    VerificationQuery,
    VerificationReply,
)

__all__ = [
    "AITFConfig",
    "PAPER_EXAMPLE_CONFIG",
    "AITFDeployment",
    "deploy_aitf",
    "ExplicitDetector",
    "RateBasedDetector",
    "NodeDirectory",
    "EventType",
    "ProtocolEvent",
    "ProtocolEventLog",
    "GatewayAgent",
    "HostAgent",
    "AITFAgent",
    "DisconnectNotice",
    "FilteringRequest",
    "RequestRole",
    "VerificationQuery",
    "VerificationReply",
]
